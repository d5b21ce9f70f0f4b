// Property-based tests: randomized instances checked against the paper's
// invariants (feasibility, optimality, bounds, monotonicity, conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/core/adams_replication.h"
#include "src/core/best_fit_placement.h"
#include "src/core/bounds.h"
#include "src/core/classification_replication.h"
#include "src/core/objective.h"
#include "src/core/round_robin_placement.h"
#include "src/core/slf_placement.h"
#include "src/core/uniform_replication.h"
#include "src/core/zipf_interval_replication.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

struct RandomInstance {
  std::vector<double> popularity;
  std::size_t num_servers;
  std::size_t budget;
  std::size_t capacity;  // per-server replica slots, >= ceil(budget / N)
};

RandomInstance random_instance(Rng& rng) {
  RandomInstance inst;
  const std::size_t m = 5 + rng.uniform_index(60);
  inst.num_servers = 2 + rng.uniform_index(9);
  if (rng.bernoulli(0.5)) {
    inst.popularity = zipf_popularity(m, rng.uniform(0.0, 1.2));
  } else {
    std::vector<double> weights(m);
    for (double& w : weights) w = rng.uniform(0.001, 1.0);
    inst.popularity = normalized_popularity(std::move(weights));
  }
  inst.budget = m + rng.uniform_index(m * (inst.num_servers - 1) + 1);
  inst.capacity = (inst.budget + inst.num_servers - 1) / inst.num_servers +
                  rng.uniform_index(3);
  return inst;
}

class ReplicationPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplicationPropertyTest, PlansAreAlwaysFeasible) {
  Rng rng(0xFEED);
  const auto policy = [&] {
    if (std::string(GetParam()) == "adams") {
      return std::unique_ptr<ReplicationPolicy>(new AdamsReplication);
    }
    if (std::string(GetParam()) == "zipf") {
      return std::unique_ptr<ReplicationPolicy>(new ZipfIntervalReplication);
    }
    if (std::string(GetParam()) == "classification") {
      return std::unique_ptr<ReplicationPolicy>(new ClassificationReplication);
    }
    return std::unique_ptr<ReplicationPolicy>(new UniformReplication);
  }();
  for (int trial = 0; trial < 40; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const ReplicationPlan plan =
        policy->replicate(inst.popularity, inst.num_servers, inst.budget);
    EXPECT_NO_THROW(plan.validate(inst.num_servers, inst.budget))
        << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplicationPropertyTest,
                         ::testing::Values("adams", "zipf", "classification",
                                           "uniform"));

TEST(Property, AdamsNeverWorseThanOtherPoliciesOnMaxWeight) {
  Rng rng(0xBEEF);
  const AdamsReplication adams;
  const ZipfIntervalReplication zipf;
  const ClassificationReplication classification;
  const UniformReplication uniform;
  for (int trial = 0; trial < 40; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const double adams_max =
        adams.replicate(inst.popularity, inst.num_servers, inst.budget)
            .max_weight(inst.popularity);
    for (const ReplicationPolicy* other :
         {static_cast<const ReplicationPolicy*>(&zipf),
          static_cast<const ReplicationPolicy*>(&classification),
          static_cast<const ReplicationPolicy*>(&uniform)}) {
      const double other_max =
          other->replicate(inst.popularity, inst.num_servers, inst.budget)
              .max_weight(inst.popularity);
      EXPECT_LE(adams_max, other_max + 1e-12)
          << other->name() << " trial " << trial;
    }
  }
}

TEST(Property, AdamsMatchesOptimalThreshold) {
  Rng rng(0xCAFE);
  const AdamsReplication adams;
  for (int trial = 0; trial < 30; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const double achieved =
        adams.replicate(inst.popularity, inst.num_servers, inst.budget)
            .max_weight(inst.popularity);
    EXPECT_NEAR(achieved,
                optimal_max_weight(inst.popularity, inst.num_servers,
                                   inst.budget),
                1e-12)
        << "trial " << trial;
  }
}

class PlacementPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PlacementPropertyTest, LayoutsAreAlwaysValidAndConserveLoad) {
  Rng rng(0xD00D);
  const AdamsReplication adams;
  std::unique_ptr<PlacementPolicy> policy;
  if (std::string(GetParam()) == "slf") {
    policy = std::make_unique<SmallestLoadFirstPlacement>();
  } else if (std::string(GetParam()) == "round-robin") {
    policy = std::make_unique<RoundRobinPlacement>();
  } else {
    policy = std::make_unique<BestFitPlacement>();
  }
  for (int trial = 0; trial < 40; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const ReplicationPlan plan =
        adams.replicate(inst.popularity, inst.num_servers, inst.budget);
    const Layout layout =
        policy->place(plan, inst.popularity, inst.num_servers, inst.capacity);
    EXPECT_NO_THROW(layout.validate(plan, inst.num_servers, inst.capacity))
        << GetParam() << " trial " << trial;
    const auto loads =
        layout.expected_loads(inst.popularity, inst.num_servers);
    double total = 0.0;
    for (double l : loads) total += l;
    EXPECT_NEAR(total, 1.0, 1e-9) << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementPropertyTest,
                         ::testing::Values("slf", "round-robin", "best-fit"));

TEST(Property, SlfSpreadNeverExceedsHeaviestReplicaWeight) {
  // The uniform invariant that holds on EVERY instance: the absolute load
  // spread of SLF placement is bounded by the heaviest per-replica weight
  // max_i w_i.  (The tighter Theorem 4.2 bound max w - min w is provable
  // only when the replica-distinctness constraint never blocks the
  // least-loaded choice; it holds in the paper's regime M >> N — see
  // slf_placement_test.cc — but is violated by up to ~40x on adversarial
  // small instances, as documented in EXPERIMENTS.md.)
  Rng rng(0xF00D);
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  for (int trial = 0; trial < 60; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const ReplicationPlan plan =
        adams.replicate(inst.popularity, inst.num_servers, inst.budget);
    const Layout layout =
        slf.place(plan, inst.popularity, inst.num_servers, inst.capacity);
    const auto loads =
        layout.expected_loads(inst.popularity, inst.num_servers);
    EXPECT_LE(load_spread(loads), plan.max_weight(inst.popularity) + 1e-12)
        << "trial " << trial;
  }
}

TEST(Property, AdamsMaxWeightNonIncreasingInBudget) {
  // The monotone core of Theorem 4.3: more budget never raises the heaviest
  // per-replica weight under optimal (Adams) replication.  The full bound
  // max w - min w is only approximately monotone (min w can dip when a
  // grant lands): we check the endpoints dominate and the max is monotone.
  Rng rng(0xABBA);
  const AdamsReplication adams;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> weights(20 + rng.uniform_index(40));
    for (double& w : weights) w = rng.uniform(0.001, 1.0);
    const auto popularity = normalized_popularity(std::move(weights));
    const std::size_t n = 4 + rng.uniform_index(5);
    double prev_max = 1e18;
    for (std::size_t budget = popularity.size();
         budget <= popularity.size() * n; budget += popularity.size() / 4) {
      const auto plan = adams.replicate(popularity, n, budget);
      EXPECT_LE(plan.max_weight(popularity), prev_max + 1e-15)
          << "trial " << trial;
      prev_max = plan.max_weight(popularity);
    }
    // Endpoints of Theorem 4.3: full replication divides the no-replication
    // bound by N exactly.
    const auto none = adams.replicate(popularity, n, popularity.size());
    const auto full = adams.replicate(popularity, n, popularity.size() * n);
    EXPECT_NEAR(slf_spread_bound(full, popularity),
                slf_spread_bound(none, popularity) / static_cast<double>(n),
                1e-12);
  }
}

TEST(Property, SimulatedServerSharesMatchExpectedLoads) {
  // Cross-module invariant: under static round-robin dispatch with no
  // rejections, each server's share of served requests converges to its
  // expected-load share l_j = sum of p_i / r_i over hosted replicas — the
  // analytic quantity the placement algorithms optimize.
  Rng rng(0x70AD);
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t m = 10 + rng.uniform_index(30);
    const std::size_t n = 2 + rng.uniform_index(5);
    const auto popularity = zipf_popularity(m, rng.uniform(0.2, 1.0));
    const std::size_t budget = m + rng.uniform_index(m);
    const std::size_t capacity = (budget + n - 1) / n + 1;
    const auto plan = adams.replicate(popularity, n, budget);
    const Layout layout = slf.place(plan, popularity, n, capacity);
    const auto expected = layout.expected_loads(popularity, n);

    SimConfig config;
    config.num_servers = n;
    config.bandwidth_bps_per_server = 1e12;  // never reject
    config.stream_bitrate_bps = 4e6;
    config.video_duration_sec = 10.0;
    TraceSpec spec;
    spec.arrival_rate = 50.0;
    spec.horizon = 2000.0;
    spec.popularity = popularity;
    Rng trace_rng = rng.split(static_cast<std::uint64_t>(trial));
    const RequestTrace trace = generate_trace(trace_rng, spec);
    const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
    ASSERT_EQ(result.rejected, 0u);

    const auto total = static_cast<double>(trace.size());
    for (std::size_t s = 0; s < n; ++s) {
      const double share =
          static_cast<double>(result.served_per_server[s]) / total;
      EXPECT_NEAR(share, expected[s], 0.02)
          << "trial " << trial << " server " << s;
    }
  }
}

TEST(Property, SlfNeverWorseThanRoundRobinOnEq2Imbalance) {
  Rng rng(0xACDC);
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const RoundRobinPlacement rr;
  int slf_wins_or_ties = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const RandomInstance inst = random_instance(rng);
    const ReplicationPlan plan =
        adams.replicate(inst.popularity, inst.num_servers, inst.budget);
    const double slf_l = imbalance_max_relative(
        slf.place(plan, inst.popularity, inst.num_servers, inst.capacity)
            .expected_loads(inst.popularity, inst.num_servers));
    const double rr_l = imbalance_max_relative(
        rr.place(plan, inst.popularity, inst.num_servers, inst.capacity)
            .expected_loads(inst.popularity, inst.num_servers));
    slf_wins_or_ties += slf_l <= rr_l + 1e-9;
  }
  // SLF is a balancing heuristic, not provably dominant per-instance, but it
  // should win essentially always on random instances.
  EXPECT_GE(slf_wins_or_ties, trials * 9 / 10);
}

}  // namespace
}  // namespace vodrep
