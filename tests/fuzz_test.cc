// Randomized end-to-end robustness suite: provision -> simulate across
// random combinations of every simulator feature (redirection modes,
// batching modes, failures, heterogeneous links, abandonment, policies),
// asserting the conservation invariants that must hold regardless of the
// configuration.  Catches feature-interaction bugs no targeted unit test
// anticipates.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/pipeline.h"
#include "src/core/striping.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

struct FuzzWorld {
  std::size_t num_videos;
  std::size_t num_servers;
  std::vector<double> popularity;
  SimConfig config;
  RequestTrace trace;
};

/// Strips the replication-only extensions from a fuzzed config: the striped
/// and hybrid simulators reject configs that set them (they model a
/// per-request replica choice those organizations do not have).
SimConfig sanitized_for_striping(SimConfig config) {
  config.redirect = RedirectMode::kNone;
  config.backbone_bps = 0.0;
  config.batching_window_sec = 0.0;
  return config;
}

FuzzWorld random_world(Rng& rng) {
  FuzzWorld world;
  world.num_videos = 5 + rng.uniform_index(60);
  world.num_servers = 2 + rng.uniform_index(9);
  world.popularity = zipf_popularity(world.num_videos, rng.uniform(0.0, 1.1));

  world.config.num_servers = world.num_servers;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(40));
  if (rng.bernoulli(0.3)) {
    world.config.per_server_bandwidth_bps.resize(world.num_servers);
    for (double& b : world.config.per_server_bandwidth_bps) {
      b = units::mbps(4) * static_cast<double>(1 + rng.uniform_index(40));
    }
  }
  world.config.video_duration_sec = rng.uniform(50.0, 2000.0);
  switch (rng.uniform_index(3)) {
    case 0: world.config.redirect = RedirectMode::kNone; break;
    case 1: world.config.redirect = RedirectMode::kOtherHolders; break;
    default: world.config.redirect = RedirectMode::kBackboneProxy; break;
  }
  world.config.backbone_bps = rng.uniform(0.0, 1e9);
  if (rng.bernoulli(0.5)) {
    world.config.batching_window_sec = rng.uniform(1.0, 500.0);
    world.config.batching_mode = rng.bernoulli(0.5)
                                     ? BatchingMode::kPiggyback
                                     : BatchingMode::kPatching;
  }

  const double horizon = rng.uniform(200.0, 3000.0);
  if (rng.bernoulli(0.4)) {
    const std::size_t crashes = 1 + rng.uniform_index(2);
    double t = 0.0;
    for (std::size_t k = 0; k < crashes; ++k) {
      t += rng.uniform(1.0, horizon / 2.0);
      world.config.failures.push_back(ServerFailure{
          t, static_cast<std::size_t>(rng.uniform_index(world.num_servers))});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.01, 1.0);
  spec.horizon = horizon;
  spec.popularity = world.popularity;
  if (rng.bernoulli(0.4)) {
    spec.abandonment.completion_probability = rng.uniform(0.2, 1.0);
  }
  world.trace = generate_trace(rng, spec);
  return world;
}

void check_invariants(const FuzzWorld& world, const SimResult& result,
                      const char* what, int trial) {
  SCOPED_TRACE(testing::Message() << what << " trial " << trial);
  EXPECT_EQ(result.total_requests, world.trace.size());
  const std::size_t served = std::accumulate(
      result.served_per_server.begin(), result.served_per_server.end(),
      std::size_t{0});
  // Every request is exactly one of: rejected, batched (piggyback joins
  // don't open a stream), or admitted as a stream; patching joins DO open a
  // catch-up stream, so "served" counts them too.  Replication/hybrid
  // admissions touch 1 server; striping/hybrid touch k, so served is an
  // upper-bounded multiple — check the accounting identity instead.
  EXPECT_LE(result.rejected + result.batched, result.total_requests);
  EXPECT_GE(served, 0u);
  EXPECT_LE(result.proxied, result.redirected);
  EXPECT_GE(result.rejection_rate(), 0.0);
  EXPECT_LE(result.rejection_rate(), 1.0);
  EXPECT_GE(result.mean_imbalance_eq2, 0.0);
  EXPECT_GE(result.mean_imbalance_cv, 0.0);
  EXPECT_GE(result.peak_imbalance_eq2, result.mean_imbalance_eq2 - 1e-9);
  for (double u : result.utilization_per_server) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-6);
  }
}

TEST(Fuzz, ReplicationSimulatorSurvivesRandomWorlds) {
  Rng rng(0xF0221);
  for (int trial = 0; trial < 120; ++trial) {
    const FuzzWorld world = random_world(rng);
    const std::size_t budget =
        world.num_videos +
        rng.uniform_index(world.num_videos * (world.num_servers - 1) + 1);
    const std::size_t capacity =
        (budget + world.num_servers - 1) / world.num_servers +
        rng.uniform_index(3);
    const char* repl_names[] = {"adams", "zipf", "classification", "uniform"};
    const char* place_names[] = {"slf", "round-robin", "best-fit"};
    const auto replication =
        make_replication_policy(repl_names[rng.uniform_index(4)]);
    const auto placement =
        make_placement_policy(place_names[rng.uniform_index(3)]);
    const ReplicationPlan plan = replication->replicate(
        world.popularity, world.num_servers, budget);
    const Layout layout =
        placement->place(plan, world.popularity, world.num_servers, capacity);
    ASSERT_NO_THROW(layout.validate(plan, world.num_servers, capacity));
    const SimResult result =
        simulate(ReplicatedPolicy(layout, world.config), world.trace);
    check_invariants(world, result, "replication", trial);
    // Replication-specific accounting: every request is a plain admission
    // (one served stream), a rejection, or a batched join; patching joins
    // also open a catch-up stream, so `served` overcounts plain admissions
    // by at most `batched`:
    //   total <= served + rejected + batched, and served + rejected <= total.
    const std::size_t served = std::accumulate(
        result.served_per_server.begin(), result.served_per_server.end(),
        std::size_t{0});
    EXPECT_GE(served + result.rejected + result.batched,
              result.total_requests)
        << "trial " << trial;
    EXPECT_LE(served + result.rejected, result.total_requests)
        << "trial " << trial;
  }
}

TEST(Fuzz, StripedSimulatorSurvivesRandomWorlds) {
  Rng rng(0xF0222);
  for (int trial = 0; trial < 80; ++trial) {
    FuzzWorld world = random_world(rng);
    world.config = sanitized_for_striping(world.config);
    const std::size_t width =
        1 + rng.uniform_index(world.num_servers);
    const HybridLayout layout =
        make_striped_layout(world.num_videos, world.num_servers, width);
    const SimResult result =
        simulate(HybridPolicy(layout, world.config), world.trace);
    check_invariants(world, result, "striped", trial);
    EXPECT_EQ(result.batched, 0u);
    EXPECT_EQ(result.redirected, 0u);
  }
}

TEST(Fuzz, StripedAndHybridRejectReplicationOnlyConfig) {
  SimConfig config;
  config.num_servers = 4;
  config.bandwidth_bps_per_server = units::mbps(100);
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 100.0;
  RequestTrace trace;
  trace.horizon = 10.0;
  const HybridLayout striped = make_striped_layout(3, 4, 2);
  const HybridLayout hybrid = make_hybrid_layout(3, 4, 2, 2);

  SimConfig redirecting = config;
  redirecting.redirect = RedirectMode::kOtherHolders;
  EXPECT_THROW((void)simulate(HybridPolicy(striped, redirecting), trace),
               InvalidArgumentError);
  EXPECT_THROW((void)simulate(HybridPolicy(hybrid, redirecting), trace),
               InvalidArgumentError);

  SimConfig proxying = config;
  proxying.backbone_bps = units::mbps(10);
  EXPECT_THROW((void)simulate(HybridPolicy(striped, proxying), trace),
               InvalidArgumentError);
  EXPECT_THROW((void)simulate(HybridPolicy(hybrid, proxying), trace),
               InvalidArgumentError);

  SimConfig batching = config;
  batching.batching_window_sec = 60.0;
  EXPECT_THROW((void)simulate(HybridPolicy(striped, batching), trace),
               InvalidArgumentError);
  EXPECT_THROW((void)simulate(HybridPolicy(hybrid, batching), trace),
               InvalidArgumentError);

  // The clean config is accepted by both.
  EXPECT_NO_THROW((void)simulate(HybridPolicy(striped, config), trace));
  EXPECT_NO_THROW((void)simulate(HybridPolicy(hybrid, config), trace));
}

TEST(Fuzz, HybridSimulatorSurvivesRandomWorlds) {
  Rng rng(0xF0223);
  for (int trial = 0; trial < 80; ++trial) {
    FuzzWorld world = random_world(rng);
    world.config = sanitized_for_striping(world.config);
    const std::size_t width = 1 + rng.uniform_index(world.num_servers);
    const std::size_t replicas =
        1 + rng.uniform_index(world.num_servers / width);
    const HybridLayout layout = make_hybrid_layout(
        world.num_videos, world.num_servers, width, replicas);
    const SimResult result =
        simulate(HybridPolicy(layout, world.config), world.trace);
    check_invariants(world, result, "hybrid", trial);
  }
}

}  // namespace
}  // namespace vodrep
