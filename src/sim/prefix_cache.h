// The edge tier's cache: a deterministic prefix cache in front of the
// replicated origin (the edge cache tier, DESIGN.md §9).
// ReplicatedPolicy (src/sim/replicated_policy.h) consults it when its
// PrefixCacheOptions give the tier a capacity; the hit/miss semantics and
// the rejection attribution live there.
//
// PrefixCache is deterministic by construction: resident entries sit in
// intrusive lists over flat uint32 index arrays, kept in eviction order on
// every lookup, insert and eviction, so victim selection is O(1) — no
// pointer- or hash-ordered iteration anywhere.  The vodrep_lint determinism
// rules, unordered-float-reduction included, apply to this file: it holds
// the tier's fractional byte accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/engine.h"

namespace vodrep {

/// Which resident prefix to evict when the cache is full.
enum class CacheEvictionPolicy {
  kLru,  ///< least recently touched prefix
  kLfu,  ///< least frequently touched; recency breaks ties (older evicts)
};

/// Deterministic fixed-capacity prefix cache over videos 0..M-1 with
/// per-video entry sizes fixed at construction.  lookup() counts hits and
/// misses and refreshes recency/frequency; insert() admits one entry,
/// evicting per the policy until it fits.  All state is flat vectors; the
/// same access sequence always produces the same residency and stats.
class PrefixCache {
 public:
  /// `entry_bytes[i]` is the stored size of video i's prefix (> 0, finite).
  PrefixCache(CacheEvictionPolicy policy, double capacity_bytes,
              std::vector<double> entry_bytes);

  /// True (and a counted hit, with recency/frequency refreshed) when the
  /// video's prefix is resident; a counted miss otherwise.
  [[nodiscard]] bool lookup(std::size_t video);

  /// Admits `video` after a miss, evicting victims until it fits.  An entry
  /// larger than the whole cache is never admitted (no eviction churn).
  /// No-op if the video is already resident.
  void insert(std::size_t video);

  [[nodiscard]] bool resident(std::size_t video) const {
    return bucket_of_[video] != kNil;
  }
  [[nodiscard]] double used_bytes() const { return stats_.used_bytes; }
  [[nodiscard]] const CacheTierStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// The resident entries with one eviction key (LRU: 1; LFU: frequency),
  /// least recently touched first.  Buckets form a list by ascending key.
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t head = kNil;  ///< least recently touched entry
    std::uint32_t tail = kNil;  ///< most recently touched entry
    std::uint32_t prev = kNil;  ///< bucket with the next smaller key
    std::uint32_t next = kNil;  ///< bucket with the next larger key
  };

  /// Deterministic victim: LRU = least recently touched; LFU = least
  /// frequently touched, the least recently touched of those.  Every touch
  /// is a distinct moment, so there are no ties.  Returns M when empty.
  [[nodiscard]] std::size_t pick_victim() const;
  /// The bucket with `key`, created right after `after` (kNil: at the
  /// front) if absent.  `after` must be kNil or have a key <= `key`, and
  /// the bucket following it a key >= `key`.
  std::uint32_t bucket_after(std::uint32_t after, std::uint64_t key);
  void push_back(std::uint32_t bucket, std::uint32_t video);
  /// Removes a resident entry, releasing its bucket if that empties it.
  void unlink(std::uint32_t video);
  [[nodiscard]] std::uint64_t key(std::uint32_t video) const {
    return policy_ == CacheEvictionPolicy::kLfu ? freq_[video] : 1;
  }

  CacheEvictionPolicy policy_;
  double capacity_bytes_ = 0.0;
  std::vector<double> entry_bytes_;
  std::vector<std::uint64_t> freq_;       ///< touches since insertion
  std::vector<std::uint32_t> bucket_of_;  ///< kNil when not resident
  std::vector<std::uint32_t> prev_;       ///< older entry in the bucket
  std::vector<std::uint32_t> next_;       ///< newer entry in the bucket
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::uint32_t first_bucket_ = kNil;  ///< smallest key: holds the victim
  CacheTierStats stats_;
};

/// Configuration of the edge tier in front of the replicated origin.
struct PrefixCacheOptions {
  CacheEvictionPolicy eviction = CacheEvictionPolicy::kLru;
  /// Total edge capacity in bytes; 0 (the default) means no tier at all.
  double capacity_bytes = 0.0;
  /// Stored prefix fraction of every video, in (0, 1].
  double uniform_prefix_fraction = 0.25;
};

}  // namespace vodrep
