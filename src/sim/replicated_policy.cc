#include "src/sim/replicated_policy.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {

VODREP_OBS_HOOKS_NS_BEGIN

namespace {

/// Validates the tier options without allocating.
void validate_tier(const PrefixCacheOptions& options) {
  require(std::isfinite(options.capacity_bytes) &&
              options.capacity_bytes >= 0.0,
          "ReplicatedPolicy: cache capacity must be finite and non-negative");
  const double fraction = options.uniform_prefix_fraction;
  require(std::isfinite(fraction) && fraction > 0.0 && fraction <= 1.0,
          "ReplicatedPolicy: prefix fraction must be in (0, 1]");
}

}  // namespace

ReplicatedPolicy::ReplicatedPolicy(const Layout& layout,
                                   const SimConfig& config,
                                   const PrefixCacheOptions& cache)
    : StoragePolicy(config),
      layout_(layout),
      dispatcher_(layout, config.redirect, config.backbone_bps,
                  config.batching_window_sec, config.video_duration_sec,
                  config.batching_mode) {
  validate_tier(cache);
  if (cache.capacity_bytes <= 0.0) return;
  const double fraction = cache.uniform_prefix_fraction;
  const double whole = units::video_bytes(config_.video_duration_sec,
                                          config_.stream_bitrate_bps);
  tier_.emplace(fraction,
                PrefixCache(cache.eviction, cache.capacity_bytes,
                            std::vector<double>(layout.num_videos(),
                                                whole * fraction)));
}

void ReplicatedPolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "ReplicatedPolicy: engine/config server count mismatch");
  engine_ = &engine;
}

const CacheTierStats* ReplicatedPolicy::cache_stats() const {
  return tier_ ? &tier_->cache.stats() : nullptr;
}

PolicyDecision ReplicatedPolicy::reject(std::size_t video,
                                        bool cache_miss) const {
  // If every holder of the video is down the request could not have been
  // served by any replica; otherwise at least one live holder exists and
  // the binding constraint was origin bandwidth.
  PolicyDecision rejected;
  rejected.reject_reason = cache_miss ? obs::RejectReason::kCacheMissOriginBusy
                                      : obs::RejectReason::kNoBandwidth;
  for (const std::size_t holder : layout_.hosts(video)) {
    if (!engine_->server(holder).failed()) return rejected;
  }
  rejected.reject_reason = obs::RejectReason::kNoReplicaAlive;
  return rejected;
}

PolicyDecision ReplicatedPolicy::dispatch(const Request& request) {
  const double bitrate = config_.stream_bitrate_bps;
  // The origin holds bandwidth for the portion it streams: the watched
  // fraction, or just the suffix after a prefix hit.
  double origin_sec = request.watch_fraction * config_.video_duration_sec;
  bool cache_miss = false;
  if (tier_) {
    cache_miss = !tier_->cache.lookup(request.video);
    if (!cache_miss) {
      const double past_prefix =
          std::max(0.0, request.watch_fraction - tier_->prefix_fraction);
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
  if (!decision.has_value()) return reject(request.video, cache_miss);
  if (cache_miss) tier_->cache.insert(request.video);
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.server = static_cast<std::int32_t>(decision->server);
  outcome.redirected = decision->redirected;
  outcome.via_backbone = decision->via_backbone;
  outcome.batched = decision->batched;
  if (decision->reserves_bandwidth()) {
    engine_->admit(decision->server, bitrate);
    // A patching join holds its catch-up stream for the missed prefix only.
    const double held_sec =
        decision->batched ? decision->patch_duration_sec : origin_sec;
    engine_->schedule_departure(
        request.arrival_time + held_sec,
        streams_.open(Stream{decision->server, decision->via_backbone}));
  }
  return outcome;
}

void ReplicatedPolicy::on_departure(std::size_t stream) {
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

std::size_t ReplicatedPolicy::on_crash(std::size_t server) {
  const std::size_t disrupted = engine_->fail(server);
  dispatcher_.on_server_failed(server);
  return disrupted;
}

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
