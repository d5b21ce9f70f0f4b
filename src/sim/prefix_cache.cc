#include "src/sim/prefix_cache.h"

#include <cmath>
#include <utility>

#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

PrefixCache::PrefixCache(CacheEvictionPolicy policy, double capacity_bytes,
                         std::vector<double> entry_bytes)
    : policy_(policy),
      capacity_bytes_(capacity_bytes),
      entry_bytes_(std::move(entry_bytes)) {
  require(std::isfinite(capacity_bytes_) && capacity_bytes_ >= 0.0,
          "PrefixCache: capacity must be finite and non-negative");
  for (double bytes : entry_bytes_) {
    require(std::isfinite(bytes) && bytes > 0.0,
            "PrefixCache: entry sizes must be positive and finite");
  }
  const std::size_t m = entry_bytes_.size();
  require(m < kNil, "PrefixCache: too many videos for 32-bit entry indices");
  freq_.assign(m, 0);
  bucket_of_.assign(m, kNil);
  prev_.assign(m, kNil);
  next_.assign(m, kNil);
  stats_.capacity_bytes = capacity_bytes_;
}

// Each touch is the newest, so a touched entry always joins the tail of its
// bucket: within a bucket the list order is touch order, and the first
// bucket's head is the smallest (key, last touch) — the victim.

std::uint32_t PrefixCache::bucket_after(std::uint32_t after,
                                        std::uint64_t key) {
  if (after != kNil && buckets_[after].key == key) return after;
  const std::uint32_t next =
      after == kNil ? first_bucket_ : buckets_[after].next;
  if (next != kNil && buckets_[next].key == key) return next;
  std::uint32_t id = 0;
  if (free_buckets_.empty()) {
    id = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  } else {
    id = free_buckets_.back();
    free_buckets_.pop_back();
  }
  buckets_[id] = Bucket{key, kNil, kNil, after, next};
  if (after == kNil) {
    first_bucket_ = id;
  } else {
    buckets_[after].next = id;
  }
  if (next != kNil) buckets_[next].prev = id;
  return id;
}

void PrefixCache::push_back(std::uint32_t bucket, std::uint32_t video) {
  Bucket& b = buckets_[bucket];
  prev_[video] = b.tail;
  next_[video] = kNil;
  if (b.tail == kNil) {
    b.head = video;
  } else {
    next_[b.tail] = video;
  }
  b.tail = video;
  bucket_of_[video] = bucket;
}

void PrefixCache::unlink(std::uint32_t video) {
  const std::uint32_t id = bucket_of_[video];
  Bucket& b = buckets_[id];
  const std::uint32_t older = prev_[video];
  const std::uint32_t newer = next_[video];
  if (older == kNil) {
    b.head = newer;
  } else {
    next_[older] = newer;
  }
  if (newer == kNil) {
    b.tail = older;
  } else {
    prev_[newer] = older;
  }
  bucket_of_[video] = kNil;
  if (b.head != kNil) return;
  if (b.prev == kNil) {
    first_bucket_ = b.next;
  } else {
    buckets_[b.prev].next = b.next;
  }
  if (b.next != kNil) buckets_[b.next].prev = b.prev;
  free_buckets_.push_back(id);
}

bool PrefixCache::lookup(std::size_t video) {
  VODREP_DCHECK(video < bucket_of_.size(), "PrefixCache: video out of range");
  const auto entry = static_cast<std::uint32_t>(video);
  const std::uint32_t from = bucket_of_[entry];
  if (from == kNil) {
    ++stats_.misses;
    return false;
  }
  ++freq_[entry];
  const std::uint32_t to = bucket_after(from, key(entry));
  // Re-linking the newest entry in place would empty, and so release, the
  // bucket it is about to rejoin.
  if (to != from || buckets_[from].tail != entry) {
    unlink(entry);
    push_back(to, entry);
  }
  ++stats_.hits;
  return true;
}

std::size_t PrefixCache::pick_victim() const {
  return first_bucket_ == kNil ? bucket_of_.size()
                               : buckets_[first_bucket_].head;
}

void PrefixCache::insert(std::size_t video) {
  VODREP_DCHECK(video < bucket_of_.size(), "PrefixCache: video out of range");
  if (resident(video)) return;
  const double bytes = entry_bytes_[video];
  if (bytes > capacity_bytes_) return;  // can never fit; skip, no churn
  while (stats_.used_bytes + bytes > capacity_bytes_) {
    const std::size_t victim = pick_victim();
    if (victim == bucket_of_.size()) {
      // Nothing resident: only eviction rounding residue keeps the fit test
      // failing.  Snap it to the exact empty state so long runs cannot
      // drift the accounting.
      stats_.used_bytes = 0.0;
      break;
    }
    unlink(static_cast<std::uint32_t>(victim));
    stats_.used_bytes -= entry_bytes_[victim];
    ++stats_.evictions;
  }
  const auto entry = static_cast<std::uint32_t>(video);
  freq_[entry] = 1;
  push_back(bucket_after(kNil, key(entry)), entry);
  stats_.used_bytes += bytes;
  ++stats_.insertions;
}

}  // namespace vodrep
