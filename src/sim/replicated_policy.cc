#include "src/sim/replicated_policy.h"

#include <memory>

#include "src/util/error.h"

namespace vodrep {

VODREP_OBS_HOOKS_NS_BEGIN

ReplicatedPolicy::ReplicatedPolicy(const Layout& layout,
                                     const SimConfig& config)
    : StoragePolicy(config),
      layout_(layout),
      dispatcher_(layout, config.redirect, config.backbone_bps,
                  config.batching_window_sec, config.video_duration_sec,
                  config.batching_mode) {}

void ReplicatedPolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "ReplicatedPolicy: engine/config server count mismatch");
  engine_ = &engine;
}

PolicyDecision ReplicatedPolicy::dispatch(const Request& request) {
  const double bitrate = config_.stream_bitrate_bps;
  const auto decision = dispatcher_.dispatch(request.video, bitrate,
                                             engine_->servers(),
                                             request.arrival_time);
  if (!decision.has_value()) {
    // Attribution: if every holder of the video is down the request could
    // not have been served by any replica; otherwise at least one live
    // holder exists and the binding constraint was outgoing bandwidth.
    PolicyDecision rejected;
    rejected.reject_reason = obs::RejectReason::kNoBandwidth;
    bool any_alive = false;
    for (const std::size_t holder : layout_.assignment[request.video]) {
      if (!engine_->server(holder).failed()) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) rejected.reject_reason = obs::RejectReason::kNoReplicaAlive;
    return rejected;
  }
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.server = static_cast<std::int32_t>(decision->server);
  outcome.redirected = decision->redirected;
  outcome.via_backbone = decision->via_backbone;
  outcome.batched = decision->batched;
  if (decision->reserves_bandwidth()) {
    engine_->admit(decision->server, bitrate);
    // A patching join holds its catch-up stream for the missed prefix only;
    // a full stream holds its bandwidth for the watched fraction.
    const double held_sec =
        decision->batched ? decision->patch_duration_sec
                          : request.watch_fraction * config_.video_duration_sec;
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

PolicyShards ReplicatedPolicy::shard(const RequestTrace& trace,
                                     std::size_t num_shards) const {
  PolicyShards out{holder_shard_plan(layout_, config_, trace, num_shards), {}};
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto policy = std::make_unique<ReplicatedPolicy>(layout_, config_);
    if (out.plan.is_routed()) {
      policy->set_routed_picks(out.plan.routed_pick_indices[s]);
    }
    out.policies.push_back(std::move(policy));
  }
  return out;
}

ShardPlan holder_shard_plan(const Layout& layout, const SimConfig& config,
                            const RequestTrace& trace,
                            std::size_t num_shards) {
  require_shardable_redirect(config.redirect, num_shards);
  const std::size_t n = config.num_servers;

  if (config.redirect == RedirectMode::kOtherHolders) {
    // Redirect retries read every holder's live load: co-shard holders.
    UnionFind uf(n);
    std::vector<std::size_t> anchor(layout.num_videos(), 0);
    for (std::size_t v = 0; v < layout.num_videos(); ++v) {
      const auto& holders = layout.assignment[v];
      require(!holders.empty(), "shard plan: video has no replica");
      anchor[v] = holders[0];
      for (std::size_t k = 1; k < holders.size(); ++k) {
        uf.merge(holders[0], holders[k]);
      }
    }
    return component_plan(uf, n, anchor, trace, num_shards);
  }

  // kNone: per-server granularity.  Replay the unconditional round-robin
  // advance in a sequential pre-pass and route each request to the shard
  // owning its picked holder, recording the pick for the shard's
  // dispatcher to replay verbatim.
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of_server.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    plan.shard_of_server[s] = static_cast<std::uint32_t>(s % num_shards);
  }
  plan.sub_traces.resize(num_shards);
  for (RequestTrace& sub : plan.sub_traces) sub.horizon = trace.horizon;
  plan.routed_pick_indices.resize(num_shards);
  plan.shard_of_request.reserve(trace.size());
  std::vector<std::size_t> rr(layout.num_videos(), 0);
  for (const Request& request : trace.requests) {
    require(request.video < layout.num_videos(),
            "shard plan: request video out of range");
    const auto& holders = layout.assignment[request.video];
    require(!holders.empty(), "shard plan: video has no replica");
    const std::size_t pick_index = rr[request.video] % holders.size();
    ++rr[request.video];
    const std::uint32_t shard = plan.shard_of_server[holders[pick_index]];
    plan.shard_of_request.push_back(shard);
    plan.sub_traces[shard].requests.push_back(request);
    plan.routed_pick_indices[shard].push_back(
        static_cast<std::uint32_t>(pick_index));
  }
  return plan;
}

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
