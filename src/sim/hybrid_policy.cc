#include "src/sim/hybrid_policy.h"

#include <algorithm>

#include "src/util/error.h"

namespace vodrep {

HybridPolicy::HybridPolicy(const HybridLayout& layout, const SimConfig& config)
    : StoragePolicy(config),
      layout_(layout),
      rr_counter_(layout.num_videos(), 0) {
  config.require_replication_extensions_unset("hybrid");
  layout.validate(config.num_servers);
}

void HybridPolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "HybridPolicy: engine/config server count mismatch");
  engine_ = &engine;
}

PolicyDecision HybridPolicy::dispatch(const Request& request) {
  require(request.video < layout_.num_videos(),
          "HybridPolicy: video out of range");
  const auto& copies = layout_.groups[request.video];
  const std::size_t pick = rr_counter_[request.video] % copies.size();
  ++rr_counter_[request.video];
  const auto& group = copies[pick];
  const double share =
      config_.stream_bitrate_bps / static_cast<double>(group.size());
  const bool admissible =
      std::all_of(group.begin(), group.end(), [&](std::size_t s) {
        return engine_->can_admit(s, share);
      });
  if (!admissible) {
    // A down member of the scheduled copy's stripe group makes that copy
    // unavailable (the RR schedule is static, so no other copy is tried);
    // with the whole group alive the binding constraint was bandwidth.
    PolicyDecision rejected;
    const bool member_down =
        std::any_of(group.begin(), group.end(), [&](std::size_t s) {
          return engine_->server(s).failed();
        });
    rejected.reject_reason = member_down
                                 ? obs::RejectReason::kStripeUnavailable
                                 : obs::RejectReason::kNoBandwidth;
    return rejected;
  }
  for (std::size_t s : group) engine_->admit(s, share);
  const auto stream = streams_.open(Stream{request.video, pick, 0});
  streams_[stream].departure = engine_->schedule_departure(
      request.arrival_time + request.watch_fraction * config_.video_duration_sec,
      stream);
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.server = static_cast<std::int32_t>(group.front());
  return outcome;
}

void HybridPolicy::on_departure(std::size_t stream) {
  const auto& group = group_of(streams_[stream]);
  streams_.close(stream);
  // An open stream's group never contains a failed server: the crash that
  // failed a member cancelled every affected departure.
  const double share =
      config_.stream_bitrate_bps / static_cast<double>(group.size());
  for (std::size_t s : group) engine_->release(s, share);
}

std::size_t HybridPolicy::on_crash(std::size_t server) {
  (void)engine_->fail(server);
  // Only the open streams are walked, in admission order.
  std::size_t disrupted = 0;
  streams_.for_each_open([&](std::size_t stream, const Stream& record) {
    const auto& group = group_of(record);
    if (std::find(group.begin(), group.end(), server) == group.end()) return;
    ++disrupted;
    engine_->cancel_departure(record.departure);
    const double share =
        config_.stream_bitrate_bps / static_cast<double>(group.size());
    for (std::size_t s : group) {
      if (s != server && !engine_->server(s).failed()) {
        engine_->release(s, share);
      }
    }
    streams_.close(stream);
  });
  return disrupted;
}

}  // namespace vodrep
