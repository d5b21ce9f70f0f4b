// NoObsReplicatedPolicy: src/sim/replicated_policy.cc against the no-obs
// engine, minus the rejection-reason attribution, in its own TU to mirror
// the library's engine/policy compilation split (see sim_noobs_baseline.h).
#include "bench/sim_noobs_baseline.h"
#include "src/util/error.h"

namespace vodrep::noobs {

NoObsReplicatedPolicy::NoObsReplicatedPolicy(const Layout& layout,
                                             const SimConfig& config)
    : config_(config),
      dispatcher_(layout, config.redirect, config.backbone_bps,
                  config.batching_window_sec, config.video_duration_sec,
                  config.batching_mode) {}

void NoObsReplicatedPolicy::bind(NoObsSimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "NoObsReplicatedPolicy: engine/config server count mismatch");
  engine_ = &engine;
}

PolicyDecision NoObsReplicatedPolicy::dispatch(const Request& request) {
  const double bitrate = config_.stream_bitrate_bps;
  const auto decision = dispatcher_.dispatch(request.video, bitrate,
                                             engine_->servers(),
                                             request.arrival_time);
  if (!decision.has_value()) return PolicyDecision{};
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.redirected = decision->redirected;
  outcome.via_backbone = decision->via_backbone;
  outcome.batched = decision->batched;
  if (decision->reserves_bandwidth()) {
    engine_->admit(decision->server, bitrate);
    const double held_sec =
        decision->batched ? decision->patch_duration_sec
                          : request.watch_fraction * config_.video_duration_sec;
    engine_->schedule_departure(
        request.arrival_time + held_sec,
        streams_.open(Stream{decision->server, decision->via_backbone}));
  }
  return outcome;
}

void NoObsReplicatedPolicy::on_departure(std::size_t stream) {
  const Stream record = streams_[stream];
  streams_.close(stream);
  if (!engine_->server(record.server).failed()) {
    engine_->release(record.server, config_.stream_bitrate_bps);
  }
  if (record.via_backbone) {
    dispatcher_.release_backbone(config_.stream_bitrate_bps);
  }
}

std::size_t NoObsReplicatedPolicy::on_crash(std::size_t server) {
  const std::size_t disrupted = engine_->fail(server);
  dispatcher_.on_server_failed(server);
  return disrupted;
}

}  // namespace vodrep::noobs
