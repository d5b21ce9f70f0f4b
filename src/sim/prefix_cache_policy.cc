#include "src/sim/prefix_cache_policy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/sim/replicated_policy.h"
#include "src/util/check.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

std::vector<double> resolve_fractions(const PrefixCacheOptions& options,
                                      std::size_t num_videos) {
  std::vector<double> fractions = options.prefix_fraction;
  if (fractions.empty()) {
    fractions.assign(num_videos, options.uniform_prefix_fraction);
  }
  require(fractions.size() == num_videos,
          "PrefixCachePolicy: prefix-fraction size mismatch");
  for (double f : fractions) {
    require(std::isfinite(f) && f > 0.0 && f <= 1.0,
            "PrefixCachePolicy: prefix fraction must be in (0, 1]");
  }
  return fractions;
}

std::vector<double> prefix_bytes(const std::vector<double>& fractions,
                                 const SimConfig& config) {
  const double whole =
      units::video_bytes(config.video_duration_sec, config.stream_bitrate_bps);
  std::vector<double> bytes;
  bytes.reserve(fractions.size());
  for (double f : fractions) bytes.push_back(whole * f);
  return bytes;
}

}  // namespace

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

PrefixCachePolicy::PrefixCachePolicy(const Layout& layout,
                                     const SimConfig& config,
                                     const PrefixCacheOptions& options)
    : StoragePolicy(config),
      layout_(layout),
      options_(options),
      cache_enabled_(options.capacity_bytes > 0.0),
      prefix_fraction_(
          resolve_fractions(options, layout.assignment.size())),
      dispatcher_(layout, config.redirect, config.backbone_bps,
                  config.batching_window_sec, config.video_duration_sec,
                  config.batching_mode),
      cache_(options.eviction, options.capacity_bytes,
             prefix_bytes(prefix_fraction_, config_)) {}

void PrefixCachePolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "PrefixCachePolicy: engine/config server count mismatch");
  engine_ = &engine;
}

const CacheTierStats* PrefixCachePolicy::cache_stats() const {
  // Disabled caches expose no stats at all, so a zero-capacity run is
  // indistinguishable from ReplicatedPolicy (metrics series included).
  return cache_enabled_ ? &cache_.stats() : nullptr;
}

PolicyDecision PrefixCachePolicy::reject_for(std::size_t video,
                                             bool cache_hit) const {
  // Attribution mirrors ReplicatedPolicy: every holder down means no
  // replica could have served it regardless of the cache; otherwise the
  // binding constraint was origin bandwidth — a plain kNoBandwidth when the
  // prefix hit (only the suffix was blocked), the cache-specific
  // kCacheMissOriginBusy when the miss forced a full origin stream.
  PolicyDecision rejected;
  bool any_alive = false;
  for (const std::size_t holder : layout_.assignment[video]) {
    if (!engine_->server(holder).failed()) {
      any_alive = true;
      break;
    }
  }
  if (!any_alive) {
    rejected.reject_reason = obs::RejectReason::kNoReplicaAlive;
  } else {
    rejected.reject_reason = cache_hit
                                 ? obs::RejectReason::kNoBandwidth
                                 : obs::RejectReason::kCacheMissOriginBusy;
  }
  return rejected;
}

PolicyDecision PrefixCachePolicy::dispatch(const Request& request) {
  const double bitrate = config_.stream_bitrate_bps;
  double origin_sec = request.watch_fraction * config_.video_duration_sec;
  bool hit = false;
  if (cache_enabled_) {
    hit = cache_.lookup(request.video);
    if (hit) {
      const double past_prefix = std::max(
          0.0, request.watch_fraction - prefix_fraction_[request.video]);
      origin_sec = past_prefix * config_.video_duration_sec;
      if (origin_sec <= 0.0) {
        // The viewer stopped inside the cached prefix: served entirely from
        // the edge tier, no origin server involved (server stays -1).
        PolicyDecision outcome;
        outcome.admitted = true;
        return outcome;
      }
    }
  }
  const auto decision = dispatcher_.dispatch(request.video, bitrate,
                                             engine_->servers(),
                                             request.arrival_time);
  if (!decision.has_value()) {
    // With the cache disabled `hit` is false but the reasons must replay
    // ReplicatedPolicy's, which never emits kCacheMissOriginBusy.
    return reject_for(request.video, hit || !cache_enabled_);
  }
  if (cache_enabled_ && !hit) cache_.insert(request.video);
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.server = static_cast<std::int32_t>(decision->server);
  outcome.redirected = decision->redirected;
  outcome.via_backbone = decision->via_backbone;
  outcome.batched = decision->batched;
  if (decision->reserves_bandwidth()) {
    engine_->admit(decision->server, bitrate);
    // A patching join holds its catch-up stream for the missed prefix only;
    // otherwise the origin holds bandwidth for the portion it streams —
    // the watched fraction on a miss, just the suffix after a prefix hit.
    const double held_sec =
        decision->batched ? decision->patch_duration_sec : origin_sec;
    engine_->schedule_departure(
        request.arrival_time + held_sec,
        streams_.open(Stream{decision->server, decision->via_backbone}));
  }
  return outcome;
}

void PrefixCachePolicy::on_departure(std::size_t stream) {
  const Stream record = streams_[stream];
  streams_.close(stream);
  // Streams on a crashed server were already dropped by the crash; their
  // departures still fire but release nothing.
  if (!engine_->server(record.server).failed()) {
    engine_->release(record.server, config_.stream_bitrate_bps);
  }
  if (record.via_backbone) {
    dispatcher_.release_backbone(config_.stream_bitrate_bps);
  }
}

std::size_t PrefixCachePolicy::on_crash(std::size_t server) {
  const std::size_t disrupted = engine_->fail(server);
  dispatcher_.on_server_failed(server);
  return disrupted;
}

PolicyShards PrefixCachePolicy::shard(const RequestTrace& trace,
                                      std::size_t num_shards) const {
  PolicyShards out;
  if (cache_enabled_) {
    require_shardable_redirect(config_.redirect, num_shards);
    // A live edge cache couples every video (capacity eviction) and its
    // residency depends on origin admissions: fuse the whole cluster into
    // one component.  The padding shards stay idle but the run still takes
    // the sharded merge path, so invariance holds by construction.
    const std::size_t n = config_.num_servers;
    UnionFind uf(n);
    for (std::size_t s = 1; s < n; ++s) uf.merge(0, s);
    const std::vector<std::size_t> anchor(layout_.num_videos(), 0);
    out.plan = component_plan(uf, n, anchor, trace, num_shards);
  } else {
    out.plan = holder_shard_plan(layout_, config_, trace, num_shards);
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto policy =
        std::make_unique<PrefixCachePolicy>(layout_, config_, options_);
    if (out.plan.is_routed()) {
      policy->set_routed_picks(out.plan.routed_pick_indices[s]);
    }
    out.policies.push_back(std::move(policy));
  }
  return out;
}

}  // namespace vodrep
