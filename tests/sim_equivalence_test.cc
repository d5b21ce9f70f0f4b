// Cross-organization equivalence: at the degenerate corners of the design
// space the organizations coincide, and the simulators must agree there.
//
//   * striped (one copy) with stripe width k = 1 == replication with one
//     replica per video on the same server (a "stripe group" of one is just
//     a replica);
//   * hybrid with k = 1 and r groups == replication with r replicas in the
//     same holder order (group-level round-robin degenerates to the
//     dispatcher's per-video replica round-robin).
//
// Counters and served counts must match exactly; the integrated float
// metrics agree to rounding (the two policies hit the integrator at
// slightly different event boundaries around crashes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/core/striping.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

void expect_near_rel(double a, double b, const char* what,
                     double rel_tol = 1e-7) {
  EXPECT_NEAR(a, b, rel_tol * std::max(1.0, std::abs(a))) << what;
}

void expect_equivalent(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.redirected, b.redirected);
  EXPECT_EQ(a.proxied, b.proxied);
  EXPECT_EQ(a.batched, b.batched);
  EXPECT_EQ(a.disrupted, b.disrupted);
  EXPECT_EQ(a.served_per_server, b.served_per_server);
  expect_near_rel(a.mean_imbalance_eq2, b.mean_imbalance_eq2, "eq2");
  // Wider tolerance for CV: sumsq/n - mean^2 cancels catastrophically at
  // (near-)equal loads, leaving ~1e-7 residue where the true value is 0.
  expect_near_rel(a.mean_imbalance_cv, b.mean_imbalance_cv, "cv", 1e-5);
  expect_near_rel(a.mean_imbalance_capacity, b.mean_imbalance_capacity,
                  "capacity");
  expect_near_rel(a.peak_imbalance_eq2, b.peak_imbalance_eq2, "peak");
  ASSERT_EQ(a.utilization_per_server.size(), b.utilization_per_server.size());
  for (std::size_t s = 0; s < a.utilization_per_server.size(); ++s) {
    expect_near_rel(a.utilization_per_server[s], b.utilization_per_server[s],
                    "utilization");
  }
}

struct World {
  std::size_t num_videos;
  std::size_t num_servers;
  SimConfig config;
  RequestTrace trace;
};

World random_world(Rng& rng) {
  World world;
  world.num_videos = 5 + rng.uniform_index(40);
  world.num_servers = 2 + rng.uniform_index(9);
  world.config.num_servers = world.num_servers;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
  if (rng.bernoulli(0.3)) {
    world.config.per_server_bandwidth_bps.resize(world.num_servers);
    for (double& b : world.config.per_server_bandwidth_bps) {
      b = units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
    }
  }
  world.config.video_duration_sec = rng.uniform(50.0, 2000.0);

  const double horizon = rng.uniform(200.0, 3000.0);
  if (rng.bernoulli(0.5)) {
    const std::size_t crashes = 1 + rng.uniform_index(2);
    double t = 0.0;
    for (std::size_t k = 0; k < crashes; ++k) {
      t += rng.uniform(1.0, horizon / 2.0);
      world.config.failures.push_back(ServerFailure{
          t, static_cast<std::size_t>(rng.uniform_index(world.num_servers))});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.05, 1.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(world.num_videos, rng.uniform(0.0, 1.1));
  if (rng.bernoulli(0.4)) {
    spec.abandonment.completion_probability = rng.uniform(0.2, 1.0);
  }
  world.trace = generate_trace(rng, spec);
  return world;
}

TEST(SimEquivalence, StripeWidthOneEqualsSingleReplicaReplication) {
  Rng rng(0xE9001);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world = random_world(rng);
    const HybridLayout striped =
        make_striped_layout(world.num_videos, world.num_servers, 1);
    // The same assignment expressed as one replica per video.
    HostLists holders(world.num_videos);
    for (std::size_t v = 0; v < world.num_videos; ++v) {
      ASSERT_EQ(striped.groups[v][0].size(), 1u);
      holders[v] = striped.groups[v][0];
    }
    const Layout replicated(holders);
    const SimResult via_striping =
        simulate(HybridPolicy(striped, world.config), world.trace);
    const SimResult via_replication =
        simulate(ReplicatedPolicy(replicated, world.config), world.trace);
    expect_equivalent(via_striping, via_replication);
  }
}

TEST(SimEquivalence, HybridWidthOneEqualsReplicationWithSameHolders) {
  Rng rng(0xE9002);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world = random_world(rng);
    const std::size_t replicas = 1 + rng.uniform_index(world.num_servers);
    const HybridLayout hybrid = make_hybrid_layout(
        world.num_videos, world.num_servers, /*stripe_width=*/1, replicas);
    // Flatten each video's width-1 groups into a replica holder list in the
    // same rotation order the hybrid dispatcher uses.
    HostLists holders(world.num_videos);
    for (std::size_t v = 0; v < world.num_videos; ++v) {
      for (const auto& group : hybrid.groups[v]) {
        ASSERT_EQ(group.size(), 1u);
        holders[v].push_back(group[0]);
      }
    }
    const Layout replicated(holders);
    const SimResult via_hybrid =
        simulate(HybridPolicy(hybrid, world.config), world.trace);
    const SimResult via_replication =
        simulate(ReplicatedPolicy(replicated, world.config), world.trace);
    expect_equivalent(via_hybrid, via_replication);
  }
}

// Regression: the policies copy their SimConfig, so the common pattern of
// constructing one from a temporary (`ReplicatedPolicy(layout,
// scenario.sim_config())`) must not leave a dangling reference.  Under
// asan the old reference member turned this into stack-use-after-scope.
TEST(SimEquivalence, PoliciesCopyTheirConfigSoTemporariesAreSafe) {
  Rng rng(0xE9003);
  const World world = random_world(rng);
  const HybridLayout striped =
      make_striped_layout(world.num_videos, world.num_servers, 1);
  HostLists holders(world.num_videos);
  for (std::size_t v = 0; v < world.num_videos; ++v) {
    holders[v] = striped.groups[v][0];
  }
  const Layout replicated(holders);

  // Builds a policy whose config argument is dead by the time it is used.
  const auto make_config = [&world] { return SimConfig(world.config); };
  SimEngine engine_r(world.config);
  ReplicatedPolicy policy_r(replicated, make_config());
  const SimResult via_temporary = engine_r.run(policy_r, world.trace);

  SimEngine engine_s(world.config);
  HybridPolicy policy_s(striped, make_config());
  const SimResult via_striped = engine_s.run(policy_s, world.trace);

  const SimResult reference =
      simulate(ReplicatedPolicy(replicated, world.config), world.trace);
  expect_equivalent(via_temporary, reference);
  expect_equivalent(via_striped, reference);
}

}  // namespace
}  // namespace vodrep
