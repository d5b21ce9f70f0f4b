#include "src/anneal/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/anneal/parallel_tempering.h"
#include "src/util/error.h"
#include "tests/anneal_toy_problems.h"

namespace vodrep {
namespace {

static_assert(AnnealProblem<QuadraticProblem>);

/// One chain through the one driver.
template <typename P>
AnnealResult<int> anneal_one(const P& problem, std::uint64_t seed,
                             const AnnealOptions& options) {
  return anneal_parallel_tempering(problem, seed, 1, options);
}

const std::vector<std::pair<double, double>>& trajectory_of(
    const AnnealResult<int>& result) {
  return result.chains[result.winning_chain].trajectory;
}

TEST(Annealer, SolvesConvexProblem) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 100.0;
  const auto result = anneal_one(problem, 1, options);
  EXPECT_EQ(result.best_state, 37);
  EXPECT_DOUBLE_EQ(result.best_cost, 0.0);
}

TEST(Annealer, EscapesLocalMinimum) {
  RuggedProblem problem;
  AnnealOptions options;
  options.initial_temperature = 200.0;
  options.moves_per_temperature = 300;
  options.stall_steps = 0;  // run the full schedule
  const auto result = anneal_one(problem, 2, options);
  EXPECT_EQ(result.best_state, 80);
  EXPECT_DOUBLE_EQ(result.best_cost, -500.0);
}

TEST(Annealer, DeterministicGivenSeed) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  const auto ra = anneal_one(problem, 7, options);
  const auto rb = anneal_one(problem, 7, options);
  EXPECT_EQ(ra.best_state, rb.best_state);
  EXPECT_EQ(ra.moves_proposed, rb.moves_proposed);
  EXPECT_EQ(ra.moves_accepted, rb.moves_accepted);
}

TEST(Annealer, BestCostTrajectoryIsNonIncreasing) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 100.0;
  const auto result = anneal_one(problem, 3, options);
  const auto& trajectory = trajectory_of(result);
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    EXPECT_LE(trajectory[i].second, trajectory[i - 1].second);
    EXPECT_LT(trajectory[i].first, trajectory[i - 1].first);
  }
}

TEST(Annealer, StallStopTerminatesEarly) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 1e-3;  // effectively greedy, converges fast
  options.final_temperature = 1e-30;
  options.stall_steps = 5;
  const auto result = anneal_one(problem, 4, options);
  EXPECT_LT(result.temperature_steps, options.max_temperature_steps);
  EXPECT_EQ(result.best_cost, 0.0);
}

TEST(Annealer, MaxStepsCapIsHonored) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 1e12;
  options.final_temperature = 1e-12;
  options.max_temperature_steps = 10;
  options.stall_steps = 0;
  const auto result = anneal_one(problem, 5, options);
  EXPECT_EQ(result.temperature_steps, 10u);
}

TEST(Annealer, RejectsBadOptions) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.final_temperature = 0.0;
  EXPECT_THROW((void)anneal_one(problem, 9, options), InvalidArgumentError);
  options.final_temperature = 1e-4;
  options.moves_per_temperature = 0;
  EXPECT_THROW((void)anneal_one(problem, 9, options), InvalidArgumentError);
  options.moves_per_temperature = 200;
  for (const double t0 : {0.0, -1.0, std::nan("")}) {
    options.initial_temperature = t0;
    EXPECT_THROW((void)anneal_one(problem, 9, options), InvalidArgumentError)
        << t0;
  }
}

TEST(Annealer, InPlacePathSolvesAndCountsNoops) {
  FlooredProblem problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  options.stall_steps = 0;
  options.max_temperature_steps = 200;
  const auto result = anneal_one(problem, 11, options);
  EXPECT_EQ(result.best_state, 0);
  EXPECT_DOUBLE_EQ(result.best_cost, 0.0);
  // Once the chain reaches the floor, downward steps are no-ops: they must
  // be counted separately and the move-slot accounting must close.
  EXPECT_GT(result.moves_noop, 0u);
  EXPECT_EQ(result.moves_proposed + result.moves_noop,
            result.temperature_steps * options.moves_per_temperature);
  EXPECT_LE(result.moves_accepted, result.moves_proposed);
}

TEST(Annealer, InPlaceDeterministicGivenSeed) {
  FlooredProblem problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  const auto ra = anneal_one(problem, 13, options);
  const auto rb = anneal_one(problem, 13, options);
  EXPECT_EQ(ra.best_state, rb.best_state);
  EXPECT_EQ(ra.moves_proposed, rb.moves_proposed);
  EXPECT_EQ(ra.moves_noop, rb.moves_noop);
}

TEST(Annealer, TrajectoryStaysUnderTheSampleCap) {
  // Enough one-move temperature steps to cross the cap once.
  constexpr std::size_t kSteps = kAnnealTrajectoryMaxSamples + 1000;
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 100.0;
  options.final_temperature = 1e-300;
  options.stall_steps = 0;
  options.moves_per_temperature = 1;
  options.max_temperature_steps = kSteps;
  const auto result = anneal_one(problem, 14, options);
  const auto& trajectory = trajectory_of(result);
  EXPECT_EQ(result.temperature_steps, kSteps);
  EXPECT_LE(trajectory.size(), kAnnealTrajectoryMaxSamples);
  // Decimation halves, no further.
  EXPECT_GE(trajectory.size(), kAnnealTrajectoryMaxSamples / 2);
  // The decimated samples keep the per-step semantics: temperatures strictly
  // cooling, best cost non-increasing, starting at the first step.
  EXPECT_DOUBLE_EQ(trajectory.front().first, 100.0);
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    EXPECT_LT(trajectory[i].first, trajectory[i - 1].first);
    EXPECT_LE(trajectory[i].second, trajectory[i - 1].second);
  }
}

TEST(Annealer, TrajectoryUnderTheCapKeepsEverySample) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 100.0;
  options.final_temperature = 1e-12;
  options.stall_steps = 0;
  options.max_temperature_steps = 120;
  const auto result = anneal_one(problem, 15, options);
  EXPECT_EQ(result.temperature_steps, 120u);
  EXPECT_EQ(trajectory_of(result).size(), result.temperature_steps);
}

TEST(GeometricCooling, MultipliesByAlpha) {
  // Every temperature step ends with T <- kCoolingRatio * T, exactly.
  QuadraticProblem problem;
  Rng rng(16);
  AnnealOptions options;
  options.initial_temperature = 10.0;
  options.final_temperature = 1e-12;
  options.stall_steps = 0;
  options.moves_per_temperature = 1;
  AnnealChain<QuadraticProblem> chain(problem, rng, options);
  double expected = 10.0;
  EXPECT_EQ(chain.temperature(), expected);
  for (int step = 0; step < 50; ++step) {
    ASSERT_TRUE(chain.step());
    expected *= kCoolingRatio;
    EXPECT_EQ(chain.temperature(), expected) << step;
  }
}

TEST(AllSchedules, StrictlyDecreaseTemperature) {
  // The chain's one cooling step strictly lowers the temperature at every
  // step, whatever the moves accepted.
  QuadraticProblem problem;
  Rng rng(17);
  AnnealOptions options;
  options.initial_temperature = 1.0;
  options.final_temperature = 1e-12;
  options.stall_steps = 0;
  options.moves_per_temperature = 10;
  AnnealChain<QuadraticProblem> chain(problem, rng, options);
  double t = chain.temperature();
  for (int step = 0; step < 50; ++step) {
    ASSERT_TRUE(chain.step());
    EXPECT_LT(chain.temperature(), t) << step;
    t = chain.temperature();
  }
}

TEST(Annealer, AcceptanceCountsAreConsistent) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 10.0;
  const auto result = anneal_one(problem, 10, options);
  EXPECT_LE(result.moves_accepted, result.moves_proposed);
  EXPECT_EQ(result.moves_proposed,
            result.temperature_steps * options.moves_per_temperature);
}

}  // namespace
}  // namespace vodrep
