#include "src/sim/striped_policy.h"

#include <algorithm>
#include <memory>

#include "src/util/error.h"

namespace vodrep {

StripedPolicy::StripedPolicy(const StripedLayout& layout,
                             const SimConfig& config)
    : StoragePolicy(config), layout_(layout) {
  config.require_replication_extensions_unset("striped");
  layout.validate(config.num_servers);
}

void StripedPolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "StripedPolicy: engine/config server count mismatch");
  engine_ = &engine;
}

double StripedPolicy::share_of(std::size_t video) const {
  return config_.stream_bitrate_bps /
         static_cast<double>(layout_.groups[video].size());
}

PolicyDecision StripedPolicy::dispatch(const Request& request) {
  require(request.video < layout_.num_videos(),
          "StripedPolicy: video out of range");
  const auto& group = layout_.groups[request.video];
  const double share = share_of(request.video);
  const bool admissible =
      std::all_of(group.begin(), group.end(), [&](std::size_t s) {
        return engine_->can_admit(s, share);
      });
  if (!admissible) {
    // A failed group member makes the whole stripe unavailable for the rest
    // of the peak; otherwise every member is alive and some member's
    // outgoing link lacked the share.
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
  const auto stream = streams_.open(Stream{request.video, 0});
  streams_[stream].departure = engine_->schedule_departure(
      request.arrival_time + request.watch_fraction * config_.video_duration_sec,
      stream);
  PolicyDecision outcome;
  outcome.admitted = true;
  outcome.server = static_cast<std::int32_t>(group.front());
  return outcome;
}

void StripedPolicy::on_departure(std::size_t stream) {
  const std::size_t video = streams_[stream].video;
  streams_.close(stream);
  // An open stream's group never contains a failed server: the crash that
  // failed a member cancelled every affected departure.
  const double share = share_of(video);
  for (std::size_t s : layout_.groups[video]) engine_->release(s, share);
}

std::size_t StripedPolicy::on_crash(std::size_t server) {
  (void)engine_->fail(server);
  // Every stream whose stripe group contains the failed server dies; its
  // shares on the surviving members free up immediately and its departure
  // never fires.  Only the open streams are walked, in admission order.
  std::size_t disrupted = 0;
  streams_.for_each_open([&](std::size_t stream, const Stream& record) {
    const auto& group = layout_.groups[record.video];
    if (std::find(group.begin(), group.end(), server) == group.end()) return;
    ++disrupted;
    engine_->cancel_departure(record.departure);
    const double share = share_of(record.video);
    for (std::size_t s : group) {
      if (s != server && !engine_->server(s).failed()) {
        engine_->release(s, share);
      }
    }
    streams_.close(stream);
  });
  return disrupted;
}

PolicyShards StripedPolicy::shard(const RequestTrace& trace,
                                  std::size_t num_shards) const {
  UnionFind uf(config_.num_servers);
  std::vector<std::size_t> anchor(layout_.groups.size(), 0);
  for (std::size_t v = 0; v < layout_.groups.size(); ++v) {
    const auto& group = layout_.groups[v];
    require(!group.empty(), "shard plan: empty stripe group");
    anchor[v] = group[0];
    for (std::size_t k = 1; k < group.size(); ++k) {
      uf.merge(group[0], group[k]);
    }
  }
  PolicyShards out{
      component_plan(uf, config_.num_servers, anchor, trace, num_shards), {}};
  for (std::size_t s = 0; s < num_shards; ++s) {
    out.policies.push_back(std::make_unique<StripedPolicy>(layout_, config_));
  }
  return out;
}

}  // namespace vodrep
