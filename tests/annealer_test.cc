#include "src/anneal/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/error.h"

namespace vodrep {
namespace {

/// 1-D quadratic over a discrete grid: cost (x - 37)^2, neighbors x +- 1.
struct QuadraticProblem {
  using State = int;

  State initial(Rng& rng) const { return static_cast<int>(rng.uniform_index(200)); }
  double cost(const State& x) const {
    const double d = x - 37.0;
    return d * d;
  }
  State neighbor(const State& x, Rng& rng) const {
    return rng.bernoulli(0.5) ? x + 1 : x - 1;
  }
};

/// A rugged 1-D landscape with a deep global minimum at 80 hidden behind a
/// local minimum at 20: tests that annealing escapes local minima.
struct RuggedProblem {
  using State = int;

  State initial(Rng&) const { return 15; }
  double cost(const State& x) const {
    const double local = 0.5 * (x - 20.0) * (x - 20.0);
    const double global = (x - 80.0) * (x - 80.0) - 500.0;
    return std::min(local, global);
  }
  State neighbor(const State& x, Rng& rng) const {
    // Long-range jumps let the chain cross the barrier.
    const int step = static_cast<int>(rng.uniform_index(21)) - 10;
    return x + step;
  }
};

/// The quadratic problem again, but through the in-place move API: the
/// engine must pick the propose/delta_cost/commit/revert path, skip no-op
/// moves (steps below the domain floor at 0) without evaluating them, and
/// still find the optimum.
struct InPlaceQuadratic {
  using State = int;
  struct Scratch {
    int committed = 0;
    int tentative = 0;
  };

  State initial(Rng&) const { return 60; }
  double cost(const State& x) const {
    const double d = static_cast<double>(x);
    return d * d;
  }
  State neighbor(const State& x, Rng& rng) const {
    return rng.bernoulli(0.5) ? x + 1 : x - 1;
  }

  Scratch make_scratch(State s) const { return {s, s}; }
  bool propose(Scratch& s, Rng& rng) const {
    const int candidate = s.committed + (rng.bernoulli(0.5) ? 1 : -1);
    if (candidate < 0) return false;  // outside the domain: no-op move
    s.tentative = candidate;
    return true;
  }
  double delta_cost(const Scratch& s) const {
    return cost(s.tentative) - cost(s.committed);
  }
  void commit(Scratch& s) const { s.committed = s.tentative; }
  void revert(Scratch& s) const { s.tentative = s.committed; }
  State extract(const Scratch& s) const { return s.committed; }
};

static_assert(InPlaceAnnealProblem<InPlaceQuadratic>);
static_assert(!InPlaceAnnealProblem<QuadraticProblem>);

TEST(Annealer, SolvesConvexProblem) {
  QuadraticProblem problem;
  Rng rng(1);
  AnnealOptions options;
  options.initial_temperature = 100.0;
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.best_state, 37);
  EXPECT_DOUBLE_EQ(result.best_cost, 0.0);
}

TEST(Annealer, EscapesLocalMinimum) {
  RuggedProblem problem;
  Rng rng(2);
  AnnealOptions options;
  options.initial_temperature = 200.0;
  options.moves_per_temperature = 300;
  options.stall_steps = 0;  // run the full schedule
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.best_state, 80);
  EXPECT_DOUBLE_EQ(result.best_cost, -500.0);
}

TEST(Annealer, DeterministicGivenSeed) {
  QuadraticProblem problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  Rng a(7);
  Rng b(7);
  const auto ra = anneal(problem, a, options);
  const auto rb = anneal(problem, b, options);
  EXPECT_EQ(ra.best_state, rb.best_state);
  EXPECT_EQ(ra.moves_proposed, rb.moves_proposed);
  EXPECT_EQ(ra.moves_accepted, rb.moves_accepted);
}

TEST(Annealer, BestCostTrajectoryIsNonIncreasing) {
  QuadraticProblem problem;
  Rng rng(3);
  AnnealOptions options;
  options.initial_temperature = 100.0;
  const auto result = anneal(problem, rng, options);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i].second, result.trajectory[i - 1].second);
    EXPECT_LT(result.trajectory[i].first, result.trajectory[i - 1].first);
  }
}

TEST(Annealer, StallStopTerminatesEarly) {
  QuadraticProblem problem;
  Rng rng(4);
  AnnealOptions options;
  options.initial_temperature = 1e-3;  // effectively greedy, converges fast
  options.final_temperature = 1e-30;
  options.stall_steps = 5;
  const auto result = anneal(problem, rng, options);
  EXPECT_LT(result.temperature_steps, options.max_temperature_steps);
  EXPECT_EQ(result.best_cost, 0.0);
}

TEST(Annealer, MaxStepsCapIsHonored) {
  QuadraticProblem problem;
  Rng rng(5);
  AnnealOptions options;
  options.initial_temperature = 1e12;
  options.final_temperature = 1e-12;
  options.max_temperature_steps = 10;
  options.stall_steps = 0;
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.temperature_steps, 10u);
}

TEST(Annealer, AutomaticCalibrationProducesReasonableTemperature) {
  QuadraticProblem problem;
  Rng rng(6);
  const double t0 = calibrate_initial_temperature(problem, rng, 0.8, 100);
  EXPECT_GT(t0, 0.0);
  // Uphill steps of a unit-step quadratic near the start are O(100); the
  // calibrated temperature must make those acceptable.
  EXPECT_GT(t0, 10.0);
}

TEST(Annealer, NegativeInitialTemperatureTriggersCalibration) {
  QuadraticProblem problem;
  Rng rng(8);
  AnnealOptions options;  // initial_temperature = -1 by default
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.best_cost, 0.0);
}

TEST(Annealer, RejectsBadOptions) {
  QuadraticProblem problem;
  Rng rng(9);
  AnnealOptions options;
  options.final_temperature = 0.0;
  EXPECT_THROW((void)anneal(problem, rng, options), InvalidArgumentError);
  options.final_temperature = 1e-4;
  options.moves_per_temperature = 0;
  EXPECT_THROW((void)anneal(problem, rng, options), InvalidArgumentError);
}

TEST(Annealer, InPlacePathSolvesAndCountsNoops) {
  InPlaceQuadratic problem;
  Rng rng(11);
  AnnealOptions options;
  options.initial_temperature = 50.0;
  options.stall_steps = 0;
  options.max_temperature_steps = 200;
  const auto result = anneal(problem, rng, options);
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
  InPlaceQuadratic problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  Rng a(13);
  Rng b(13);
  const auto ra = anneal(problem, a, options);
  const auto rb = anneal(problem, b, options);
  EXPECT_EQ(ra.best_state, rb.best_state);
  EXPECT_EQ(ra.moves_proposed, rb.moves_proposed);
  EXPECT_EQ(ra.moves_noop, rb.moves_noop);
}

TEST(Annealer, TrajectoryStaysUnderTheSampleCap) {
  // Enough one-move temperature steps to cross the cap once.
  constexpr std::size_t kSteps = kAnnealTrajectoryMaxSamples + 1000;
  QuadraticProblem problem;
  Rng rng(14);
  AnnealOptions options;
  options.initial_temperature = 100.0;
  options.final_temperature = 1e-300;
  options.stall_steps = 0;
  options.moves_per_temperature = 1;
  options.max_temperature_steps = kSteps;
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.temperature_steps, kSteps);
  EXPECT_LE(result.trajectory.size(), kAnnealTrajectoryMaxSamples);
  // Decimation halves, no further.
  EXPECT_GE(result.trajectory.size(), kAnnealTrajectoryMaxSamples / 2);
  // The decimated samples keep the per-step semantics: temperatures strictly
  // cooling, best cost non-increasing, starting at the first step.
  EXPECT_DOUBLE_EQ(result.trajectory.front().first, 100.0);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LT(result.trajectory[i].first, result.trajectory[i - 1].first);
    EXPECT_LE(result.trajectory[i].second, result.trajectory[i - 1].second);
  }
}

TEST(Annealer, TrajectoryUnderTheCapKeepsEverySample) {
  QuadraticProblem problem;
  Rng rng(15);
  AnnealOptions options;
  options.initial_temperature = 100.0;
  options.final_temperature = 1e-12;
  options.stall_steps = 0;
  options.max_temperature_steps = 120;
  const auto result = anneal(problem, rng, options);
  EXPECT_EQ(result.temperature_steps, 120u);
  EXPECT_EQ(result.trajectory.size(), result.temperature_steps);
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
  Rng rng(10);
  AnnealOptions options;
  options.initial_temperature = 10.0;
  const auto result = anneal(problem, rng, options);
  EXPECT_LE(result.moves_accepted, result.moves_proposed);
  EXPECT_EQ(result.moves_proposed,
            result.temperature_steps * options.moves_per_temperature);
}

}  // namespace
}  // namespace vodrep
