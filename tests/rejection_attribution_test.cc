// Rejection-reason attribution: every rejection a policy reports must carry
// exactly one typed reason, the per-reason tallies in SimResult must sum to
// the rejection total (the engine counts them always-on, independent of any
// attached event log), and each reason must mean what it says:
//   * kNoReplicaAlive  — replicated organization, every holder crashed;
//   * kStripeUnavailable — striped/hybrid, a scheduled group member crashed;
//   * kNoBandwidth     — the scheduled server(s) were alive but full.
// Deterministic single-request scenarios pin each reason; random worlds
// (same envelope as the differential suite) check the sum invariant across
// all three organizations.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "src/core/layout.h"
#include "src/core/striping.h"
#include "src/obs/event_log.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

std::size_t reason_count(const SimResult& result, obs::RejectReason reason) {
  return result.rejected_by_reason[static_cast<std::size_t>(reason)];
}

std::size_t reason_sum(const SimResult& result) {
  return std::accumulate(result.rejected_by_reason.begin(),
                         result.rejected_by_reason.end(), std::size_t{0});
}

void expect_attribution_consistent(const SimResult& result,
                                   bool failures_injected) {
  EXPECT_EQ(reason_sum(result), result.rejected);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNone), 0u);
  if (!failures_injected) {
    // Availability reasons require a crash; without failures every
    // rejection is a bandwidth rejection.
    EXPECT_EQ(reason_count(result, obs::RejectReason::kNoReplicaAlive), 0u);
    EXPECT_EQ(reason_count(result, obs::RejectReason::kStripeUnavailable),
              0u);
  }
}

RequestTrace two_request_trace(double t_first, double t_second,
                               std::size_t video = 0) {
  RequestTrace trace;
  trace.requests.push_back(Request{t_first, video, 1.0});
  trace.requests.push_back(Request{t_second, video, 1.0});
  trace.horizon = t_second + 100.0;
  return trace;
}

SimConfig base_config(std::size_t num_servers, double streams_per_server) {
  SimConfig config;
  config.num_servers = num_servers;
  config.stream_bitrate_bps = units::mbps(4);
  config.bandwidth_bps_per_server = units::mbps(4) * streams_per_server;
  config.video_duration_sec = 500.0;
  return config;
}

// ---------------------------------------------------------------------------
// Deterministic per-reason scenarios.
// ---------------------------------------------------------------------------

TEST(RejectionAttributionTest, ReplicatedAllHoldersCrashedIsNoReplicaAlive) {
  SimConfig config = base_config(2, 10.0);
  config.failures.push_back(ServerFailure{10.0, 0});
  const Layout layout{{0}};  // video 0 only on the server that crashes
  const RequestTrace trace = two_request_trace(5.0, 20.0);
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.disrupted, 1u);  // the t=5 stream dies in the crash
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoReplicaAlive), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/true);
}

TEST(RejectionAttributionTest, ReplicatedFullServerIsNoBandwidth) {
  // One server, room for one stream: the overlapping second request is a
  // bandwidth rejection (the holder is alive).
  const SimConfig config = base_config(1, 1.0);
  const Layout layout{{0}};
  const RequestTrace trace = two_request_trace(1.0, 2.0);
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoBandwidth), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/false);
}

TEST(RejectionAttributionTest,
     ReplicatedSurvivingHolderFullIsNoBandwidthNotNoReplicaAlive) {
  // Video on {0, 1}; server 0 crashes, server 1 survives but is full.  The
  // rejection is kNoBandwidth: a replica is alive, it just has no room.
  SimConfig config = base_config(2, 1.0);
  config.failures.push_back(ServerFailure{10.0, 0});
  const Layout layout{{0, 1}, {1}};
  RequestTrace trace;
  trace.requests.push_back(Request{5.0, 1, 1.0});   // fills server 1
  trace.requests.push_back(Request{20.0, 0, 1.0});  // RR pick 0 crashed, 1 full
  trace.horizon = 200.0;
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoBandwidth), 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoReplicaAlive), 0u);
  expect_attribution_consistent(result, /*failures_injected=*/true);
}

TEST(RejectionAttributionTest, StripedCrashedMemberIsStripeUnavailable) {
  // The crash hits the group's second member, not its lead.
  SimConfig config = base_config(2, 10.0);
  config.failures.push_back(ServerFailure{10.0, 1});
  const HybridLayout layout = make_striped_layout(1, 2, 2);  // group {0,1}
  const RequestTrace trace = two_request_trace(5.0, 20.0);
  const SimResult result = simulate(HybridPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kStripeUnavailable), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/true);
}

TEST(RejectionAttributionTest, StripedFullGroupIsNoBandwidth) {
  // Width-2 stripes over 2 servers, each member has room for one bitrate/2
  // share: the overlapping second stream finds the group alive but full.
  const SimConfig config = base_config(2, 0.5);
  const HybridLayout layout = make_striped_layout(1, 2, 2);
  const RequestTrace trace = two_request_trace(1.0, 2.0);
  const SimResult result = simulate(HybridPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoBandwidth), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/false);
}

TEST(RejectionAttributionTest, HybridCrashedMemberIsStripeUnavailable) {
  SimConfig config = base_config(2, 10.0);
  config.failures.push_back(ServerFailure{10.0, 0});
  // One copy of one width-2 group: the scheduled group always contains the
  // crashed server (static RR has no other copy to try).
  const HybridLayout layout = make_hybrid_layout(1, 2, 2, 1);
  const RequestTrace trace = two_request_trace(5.0, 20.0);
  const SimResult result = simulate(HybridPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kStripeUnavailable), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/true);
}

TEST(RejectionAttributionTest, HybridFullGroupIsNoBandwidth) {
  const SimConfig config = base_config(2, 0.5);
  const HybridLayout layout = make_hybrid_layout(1, 2, 2, 1);
  const RequestTrace trace = two_request_trace(1.0, 2.0);
  const SimResult result = simulate(HybridPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoBandwidth), 1u);
  expect_attribution_consistent(result, /*failures_injected=*/false);
}

// ---------------------------------------------------------------------------
// Random-world sum invariant, all three organizations.
// ---------------------------------------------------------------------------

struct World {
  std::size_t num_videos;
  std::size_t num_servers;
  SimConfig config;
  RequestTrace trace;
};

/// Same envelope as the differential suite, biased toward overload and
/// crashes so rejections actually occur.
World random_world(Rng& rng, bool replication_extensions) {
  World world;
  world.num_videos = 5 + rng.uniform_index(30);
  world.num_servers = 2 + rng.uniform_index(7);

  world.config.num_servers = world.num_servers;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(10));
  world.config.video_duration_sec = rng.uniform(200.0, 2000.0);
  if (replication_extensions) {
    switch (rng.uniform_index(3)) {
      case 0: world.config.redirect = RedirectMode::kNone; break;
      case 1: world.config.redirect = RedirectMode::kOtherHolders; break;
      default: world.config.redirect = RedirectMode::kBackboneProxy; break;
    }
    world.config.backbone_bps = rng.uniform(0.0, 1e8);
    if (rng.bernoulli(0.5)) {
      world.config.batching_window_sec = rng.uniform(1.0, 200.0);
      world.config.batching_mode = rng.bernoulli(0.5)
                                       ? BatchingMode::kPiggyback
                                       : BatchingMode::kPatching;
    }
  }

  const double horizon = rng.uniform(300.0, 2000.0);
  if (rng.bernoulli(0.7)) {
    const std::size_t crashes = 1 + rng.uniform_index(2);
    double t = 0.0;
    for (std::size_t k = 0; k < crashes; ++k) {
      t += rng.uniform(1.0, horizon / 2.0);
      world.config.failures.push_back(ServerFailure{
          t, static_cast<std::size_t>(rng.uniform_index(world.num_servers))});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.1, 1.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(world.num_videos, rng.uniform(0.0, 1.1));
  world.trace = generate_trace(rng, spec);
  return world;
}

Layout random_layout(Rng& rng, std::size_t num_videos,
                     std::size_t num_servers) {
  HostLists hosts(num_videos);
  std::vector<std::size_t> pool(num_servers);
  for (std::size_t v = 0; v < num_videos; ++v) {
    for (std::size_t s = 0; s < num_servers; ++s) pool[s] = s;
    const std::size_t replicas = 1 + rng.uniform_index(num_servers);
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::size_t pick = r + rng.uniform_index(num_servers - r);
      std::swap(pool[r], pool[pick]);
      hosts[v].push_back(pool[r]);
    }
  }
  return Layout(hosts);
}

TEST(RejectionAttributionTest, RandomWorldsSumExactlyAcrossOrganizations) {
  Rng rng(0xA77B);
  std::size_t total_rejections = 0;
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    {
      const World world = random_world(rng, /*replication_extensions=*/true);
      const Layout layout =
          random_layout(rng, world.num_videos, world.num_servers);
      const SimResult result =
          simulate(ReplicatedPolicy(layout, world.config), world.trace);
      expect_attribution_consistent(result, !world.config.failures.empty());
      total_rejections += result.rejected;
    }
    {
      const World world = random_world(rng, /*replication_extensions=*/false);
      const std::size_t width = 1 + rng.uniform_index(world.num_servers);
      const HybridLayout layout =
          make_striped_layout(world.num_videos, world.num_servers, width);
      const SimResult result =
          simulate(HybridPolicy(layout, world.config), world.trace);
      expect_attribution_consistent(result, !world.config.failures.empty());
      total_rejections += result.rejected;
    }
    {
      const World world = random_world(rng, /*replication_extensions=*/false);
      const std::size_t width = 1 + rng.uniform_index(world.num_servers);
      const std::size_t replicas =
          1 + rng.uniform_index(world.num_servers / width);
      const HybridLayout layout = make_hybrid_layout(
          world.num_videos, world.num_servers, width, replicas);
      const SimResult result =
          simulate(HybridPolicy(layout, world.config), world.trace);
      expect_attribution_consistent(result, !world.config.failures.empty());
      total_rejections += result.rejected;
    }
  }
  // The envelope is biased toward overload: the invariant must have been
  // exercised on real rejections, not vacuously on all-zero tallies.
  EXPECT_GT(total_rejections, 0u);
}

}  // namespace
}  // namespace vodrep
