#include "src/core/adams_replication.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <queue>
#include <tuple>

#include "src/core/bounds.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(AdamsReplication, EveryVideoGetsAtLeastOneReplica) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(20, 0.75), 4, 30);
  for (std::size_t r : plan.replicas) EXPECT_GE(r, 1u);
}

TEST(AdamsReplication, SaturatesBudgetWhenPossible) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(20, 0.75), 4, 50);
  EXPECT_EQ(plan.total_replicas(), 50u);
}

TEST(AdamsReplication, StopsAtFullReplication) {
  const AdamsReplication adams;
  // Budget allows more than M * N replicas; the cap must bind.
  const auto plan = adams.replicate(zipf_popularity(5, 0.75), 3, 100);
  for (std::size_t r : plan.replicas) EXPECT_EQ(r, 3u);
  EXPECT_EQ(plan.total_replicas(), 15u);
}

TEST(AdamsReplication, RespectsServerCap) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(10, 1.0), 4, 35);
  for (std::size_t r : plan.replicas) EXPECT_LE(r, 4u);
}

TEST(AdamsReplication, BudgetEqualToVideosMeansNoReplication) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(12, 0.75), 4, 12);
  for (std::size_t r : plan.replicas) EXPECT_EQ(r, 1u);
}

TEST(AdamsReplication, InsufficientBudgetThrows) {
  const AdamsReplication adams;
  EXPECT_THROW((void)adams.replicate(zipf_popularity(10, 0.75), 4, 9),
               InfeasibleError);
}

TEST(AdamsReplication, MorePopularVideosGetAtLeastAsManyReplicas) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(30, 0.9), 8, 75);
  for (std::size_t i = 1; i < plan.replicas.size(); ++i) {
    EXPECT_GE(plan.replicas[i - 1], plan.replicas[i]) << "i=" << i;
  }
}

TEST(AdamsReplication, MatchesPaperFigure1Example) {
  // Figure 1: five videos, three servers, per-server capacity of three
  // replicas -> budget 9.  With p1 >= p2 >= ... the first grants go to the
  // heaviest current weights.  Use the concrete vector {5,4,3,2,1}/15.
  const std::vector<double> popularity =
      normalized_popularity({5.0, 4.0, 3.0, 2.0, 1.0});
  const AdamsReplication adams;
  std::vector<AdamsStep> steps;
  const auto plan = adams.replicate_traced(popularity, 3, 9, &steps);
  EXPECT_EQ(plan.total_replicas(), 9u);
  ASSERT_EQ(steps.size(), 4u);
  // Grant sequence by current max weight: p1=5 -> v1 (5/2=2.5);
  // p2=4 -> v2 (2); p3=3 -> v3 (1.5); then max{2.5,2,1.5,2,1} -> v1 again.
  EXPECT_EQ(steps[0].video, 0u);
  EXPECT_EQ(steps[1].video, 1u);
  EXPECT_EQ(steps[2].video, 2u);
  EXPECT_EQ(steps[3].video, 0u);
  EXPECT_EQ(plan.replicas, (std::vector<std::size_t>{3, 2, 2, 1, 1}));
}

TEST(AdamsReplication, TraceWeightsAreConsistent) {
  const auto popularity = zipf_popularity(10, 0.75);
  const AdamsReplication adams;
  std::vector<AdamsStep> steps;
  (void)adams.replicate_traced(popularity, 4, 25, &steps);
  ASSERT_EQ(steps.size(), 15u);
  for (const AdamsStep& step : steps) {
    EXPECT_DOUBLE_EQ(step.weight_after,
                     popularity[step.video] /
                         static_cast<double>(step.new_replicas));
    EXPECT_DOUBLE_EQ(step.weight_before,
                     popularity[step.video] /
                         static_cast<double>(step.new_replicas - 1));
    EXPECT_GT(step.weight_before, step.weight_after);
  }
}

TEST(AdamsReplication, GrantedWeightsNeverIncrease) {
  // The sequence of picked max-weights must be non-increasing — the
  // signature of a correct greedy on the max objective.
  const auto popularity = zipf_popularity(40, 0.9);
  const AdamsReplication adams;
  std::vector<AdamsStep> steps;
  (void)adams.replicate_traced(popularity, 8, 120, &steps);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GE(steps[i - 1].weight_before, steps[i].weight_before - 1e-15);
  }
}

// ---- optimality (Theorem 4.1): Adams achieves the optimal Eq. 8 value ----

struct AdamsCase {
  std::size_t videos;
  std::size_t servers;
  double budget_factor;  // budget = round(factor * videos)
  double theta;
};

class AdamsOptimalityTest : public ::testing::TestWithParam<AdamsCase> {};

TEST_P(AdamsOptimalityTest, AchievesBruteForceOptimum) {
  const AdamsCase c = GetParam();
  const auto popularity = zipf_popularity(c.videos, c.theta);
  const auto budget = static_cast<std::size_t>(
      c.budget_factor * static_cast<double>(c.videos));
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, c.servers, budget);
  const double achieved = plan.max_weight(popularity);
  const double optimal = optimal_max_weight(popularity, c.servers, budget);
  EXPECT_NEAR(achieved, optimal, 1e-12)
      << "M=" << c.videos << " N=" << c.servers << " budget=" << budget;
}

INSTANTIATE_TEST_SUITE_P(
    SweepsSizesAndSkews, AdamsOptimalityTest,
    ::testing::Values(AdamsCase{5, 3, 1.8, 0.75}, AdamsCase{10, 4, 1.5, 0.25},
                      AdamsCase{20, 8, 1.2, 1.0}, AdamsCase{50, 8, 1.4, 0.75},
                      AdamsCase{100, 8, 1.6, 0.5}, AdamsCase{300, 8, 1.2, 0.75},
                      AdamsCase{300, 8, 1.8, 0.271},
                      AdamsCase{37, 5, 2.0, 0.9}));

TEST(AdamsReplication, OptimalOnRandomPopularities) {
  Rng rng(1234);
  const AdamsReplication adams;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 5 + rng.uniform_index(40);
    const std::size_t n = 2 + rng.uniform_index(7);
    std::vector<double> weights(m);
    for (double& w : weights) w = rng.uniform(0.01, 1.0);
    const auto popularity = normalized_popularity(std::move(weights));
    const std::size_t budget = m + rng.uniform_index(m * (n - 1) + 1);
    const auto plan = adams.replicate(popularity, n, budget);
    EXPECT_NEAR(plan.max_weight(popularity),
                optimal_max_weight(popularity, n, budget), 1e-12)
        << "trial=" << trial;
  }
}

TEST(AdamsReplication, SingleServerDegeneratesToOneEach) {
  const AdamsReplication adams;
  const auto plan = adams.replicate(zipf_popularity(6, 0.75), 1, 6);
  for (std::size_t r : plan.replicas) EXPECT_EQ(r, 1u);
}

// ---- differential tier: the heap greedy the selection replaced ----

/// The paper's heap greedy, kept as the reference: grant one replica at a
/// time to the video with the largest p_i / r_i, ties to the smaller index,
/// until the budget is spent or every video holds N replicas.
ReplicationPlan heap_greedy(const std::vector<double>& popularity,
                            std::size_t num_servers, std::size_t budget,
                            std::vector<AdamsStep>* steps) {
  struct Entry {
    double weight;
    std::size_t video;
    // std::priority_queue is a max-heap on operator<; the inverted index
    // comparison makes smaller indices win ties.
    bool operator<(const Entry& other) const {
      return std::tie(weight, other.video) < std::tie(other.weight, video);
    }
  };
  ReplicationPlan plan;
  plan.replicas.assign(popularity.size(), 1);
  std::priority_queue<Entry> heap;
  if (num_servers > 1) {
    for (std::size_t i = 0; i < popularity.size(); ++i) {
      heap.push(Entry{popularity[i], i});
    }
  }
  for (std::size_t left = budget - popularity.size();
       left > 0 && !heap.empty(); --left) {
    const Entry top = heap.top();
    heap.pop();
    const std::size_t r = ++plan.replicas[top.video];
    const double weight = popularity[top.video] / static_cast<double>(r);
    if (steps != nullptr) {
      steps->push_back(AdamsStep{top.video, r, top.weight, weight});
    }
    if (r < num_servers) heap.push(Entry{weight, top.video});
  }
  return plan;
}

/// Expects replicate() and replicate_traced() to return the heap greedy's
/// plan, and the traced steps to equal its grants with every float bit-equal.
void expect_same_as_heap(const std::vector<double>& popularity,
                         std::size_t num_servers, std::size_t budget) {
  ASSERT_TRUE(is_popularity_vector(popularity));
  const AdamsReplication adams;
  std::vector<AdamsStep> expected_steps;
  std::vector<AdamsStep> actual_steps;
  const ReplicationPlan expected =
      heap_greedy(popularity, num_servers, budget, &expected_steps);
  const ReplicationPlan traced =
      adams.replicate_traced(popularity, num_servers, budget, &actual_steps);
  const std::string where = "M=" + std::to_string(popularity.size()) +
                            " N=" + std::to_string(num_servers) +
                            " budget=" + std::to_string(budget);
  EXPECT_EQ(adams.replicate(popularity, num_servers, budget).replicas,
            expected.replicas)
      << where;
  EXPECT_EQ(traced.replicas, expected.replicas) << where;
  ASSERT_EQ(actual_steps.size(), expected_steps.size()) << where;
  for (std::size_t k = 0; k < actual_steps.size(); ++k) {
    const AdamsStep& a = actual_steps[k];
    const AdamsStep& e = expected_steps[k];
    const bool same =
        a.video == e.video && a.new_replicas == e.new_replicas &&
        std::bit_cast<std::uint64_t>(a.weight_before) ==
            std::bit_cast<std::uint64_t>(e.weight_before) &&
        std::bit_cast<std::uint64_t>(a.weight_after) ==
            std::bit_cast<std::uint64_t>(e.weight_after);
    EXPECT_TRUE(same) << where << " step " << k << ": video " << a.video
                      << "/" << e.video << " replicas " << a.new_replicas
                      << "/" << e.new_replicas;
    if (!same) break;
  }
}

/// A budget in [M, M*N + 2]: from no grant at all to more room than keys.
std::size_t random_budget(Rng& rng, std::size_t m, std::size_t n) {
  return m + rng.uniform_index(m * n - m + 3);
}

template <typename Weight>
void sweep_random_cases(std::uint64_t seed, int trials, Weight weight) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(80);
    const std::size_t n = 1 + rng.uniform_index(16);
    std::vector<double> weights(m);
    for (double& w : weights) w = weight(rng);
    weights[0] = 1.0;  // a positive total
    expect_same_as_heap(normalized_popularity(std::move(weights)), n,
                        random_budget(rng, m, n));
  }
}

TEST(AdamsDifferential, RandomVectors) {
  sweep_random_cases(2301, 300, [](Rng& rng) { return rng.uniform(0.001, 1.0); });
}

TEST(AdamsDifferential, IntegerWeightsWithManyTies) {
  sweep_random_cases(2302, 300, [](Rng& rng) {
    return static_cast<double>(1 + rng.uniform_index(4));
  });
}

TEST(AdamsDifferential, ZeroPopularityVideos) {
  // Zero keys tie with each other, so a budget past the positive keys
  // grants them in index order, each video up to N.
  sweep_random_cases(2303, 300, [](Rng& rng) {
    return rng.uniform_index(3) == 0 ? 0.0 : rng.uniform(0.001, 1.0);
  });
}

TEST(AdamsDifferential, AllEqualVectors) {
  Rng rng(2304);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(200);
    const std::size_t n = 1 + rng.uniform_index(16);
    expect_same_as_heap(uniform_popularity(m), n, random_budget(rng, m, n));
  }
}

TEST(AdamsDifferential, RisesWithinTheTolerance) {
  // is_popularity_vector accepts a rise of up to 1e-9 between neighbours,
  // so the selection may not assume a sorted vector: lift every other
  // entry of a tie-heavy vector by 5e-10.
  Rng rng(2305);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t m = 2 + rng.uniform_index(80);
    const std::size_t n = 1 + rng.uniform_index(16);
    std::vector<double> weights(m);
    for (double& w : weights) w = static_cast<double>(1 + rng.uniform_index(3));
    std::vector<double> popularity = normalized_popularity(std::move(weights));
    for (std::size_t i = 1; i < m; i += 2) popularity[i] += 5e-10;
    expect_same_as_heap(popularity, n, random_budget(rng, m, n));
  }
}

TEST(AdamsDifferential, EdgeBudgetsAndServerCounts) {
  const std::vector<double> popularity = zipf_popularity(37, 0.75);
  const std::size_t m = popularity.size();
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9}}) {
    for (std::size_t budget : {m, m + 1, m * n - 1, m * n, m * n + 1, 10 * m * n}) {
      if (budget < m) continue;
      expect_same_as_heap(popularity, n, budget);
    }
  }
}

TEST(AdamsDifferential, WideTies) {
  // More tied keys than a bracket settled by selection holds: 3,000 equal
  // popularities tie at every key, and past the positive keys every zero
  // key ties at 0, granted in index order up to N each.
  const std::size_t m = 3000;
  for (std::size_t budget : {m + 1000, 2 * m + 500, 3 * m}) {
    expect_same_as_heap(uniform_popularity(m), 4, budget);
  }
  Rng rng(2309);
  std::vector<double> weights(m, 0.0);
  for (std::size_t i = 0; i < m / 3; ++i) weights[i] = rng.uniform(0.1, 1.0);
  const std::vector<double> popularity = normalized_popularity(weights);
  for (std::size_t budget : {m + 500, 2 * m, 2 * m + 2500, 4 * m - 1}) {
    expect_same_as_heap(popularity, 4, budget);
  }
}

TEST(AdamsDifferential, LargeCatalogue) {
  // M = 100k, N = 32, degree 3: 200,000 grants.
  expect_same_as_heap(zipf_popularity(100'000, 0.75), 32, 300'000);
}

}  // namespace
}  // namespace vodrep
