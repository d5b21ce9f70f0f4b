// StoragePolicy for the replicated organization fronted by an edge-proxy
// prefix cache (the segment/prefix content model, DESIGN.md §9).
//
// The edge tier holds the first `prefix_fraction` of each video (the prefix
// a viewer watches before the origin can stage the suffix).  A request
// first consults the cache:
//
//   * prefix HIT, viewer stops inside the prefix — served entirely from the
//     edge; no origin bandwidth is reserved at all;
//   * prefix HIT, viewer watches past the prefix — only the suffix streams
//     from the origin cluster, holding origin bandwidth for
//     (watch_fraction - prefix_fraction) * duration seconds;
//   * prefix MISS — the whole watched stream comes from the origin (the
//     fetch that fills the cache rides the same stream), and the prefix is
//     inserted into the cache, evicting per the configured policy.
//
// Rejection attribution is exact: a blocked suffix after a hit is plain
// kNoBandwidth (the cache did its job; the origin link was the constraint),
// a miss with at least one live replica holder but no origin bandwidth is
// the new kCacheMissOriginBusy, and a miss with every holder crashed stays
// kNoReplicaAlive.  With capacity 0 the cache tier is disabled outright and
// the policy reproduces ReplicatedPolicy decision-for-decision, reasons
// included (asserted by tests/prefix_cache_test.cc).
//
// The cache itself (PrefixCache) is deterministic by construction: resident
// entries sit in intrusive lists over flat uint32 index arrays, kept in
// eviction order on every lookup, insert and eviction, so victim selection
// is O(1) — no pointer- or hash-ordered iteration anywhere (the vodrep_lint
// determinism rules apply to this file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/dispatcher.h"
#include "src/sim/engine.h"
#include "src/sim/stream_table.h"
#include "src/util/error.h"

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
  /// Total edge capacity in bytes; 0 disables the tier entirely (the policy
  /// then replays ReplicatedPolicy exactly).
  double capacity_bytes = 0.0;
  /// Per-video stored prefix fraction in (0, 1]; empty applies
  /// `uniform_prefix_fraction` to every video.
  std::vector<double> prefix_fraction;
  double uniform_prefix_fraction = 0.25;
};

/// ReplicatedPolicy + edge prefix cache.  See the file comment for the hit/
/// miss semantics and rejection attribution.
class PrefixCachePolicy final : public StoragePolicy {
 public:
  /// `layout` must outlive the policy; `config` and `options` are copied.
  PrefixCachePolicy(const Layout& layout, const SimConfig& config,
                    const PrefixCacheOptions& options);

  void bind(SimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;
  [[nodiscard]] const CacheTierStats* cache_stats() const override;
  /// A live tier fuses every server into one component; a disabled tier
  /// shards by the replicated rules (holder_shard_plan).
  [[nodiscard]] PolicyShards shard(const RequestTrace& trace,
                                   std::size_t num_shards) const override;

  /// Routed sub-trace replay (sharded simulation).  Only valid with the
  /// cache tier disabled: with a live cache a prefix hit that ends inside
  /// the prefix never consults the dispatcher, so a precomputed pick
  /// sequence cannot stay aligned with the dispatch calls.
  void set_routed_picks(std::vector<std::uint32_t> picks) {
    require(!cache_enabled_,
            "PrefixCachePolicy: routed replay requires a disabled cache "
            "tier (prefix hits skip the dispatcher)");
    dispatcher_.set_routed_picks(std::move(picks));
  }

 private:
  /// One origin reservation with a scheduled departure (full stream,
  /// suffix stream, or patching catch-up).
  struct Stream {
    std::size_t server = 0;
    bool via_backbone = false;
  };

  [[nodiscard]] PolicyDecision reject_for(std::size_t video,
                                          bool cache_hit) const;

  const Layout& layout_;
  const PrefixCacheOptions options_;
  const bool cache_enabled_;
  std::vector<double> prefix_fraction_;  ///< size M, each in (0, 1]
  Dispatcher dispatcher_;
  PrefixCache cache_;
  SimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
};

}  // namespace vodrep
