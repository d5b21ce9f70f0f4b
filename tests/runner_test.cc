#include "src/exp/runner.h"

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/exp/scenario.h"
#include "src/util/error.h"

namespace vodrep {
namespace {

struct RunnerFixture {
  PaperScenario scenario;
  Layout layout;

  RunnerFixture() {
    scenario.num_videos = 40;   // small instance for fast tests
    scenario.theta = 0.75;
    scenario.replication_degree = 1.2;
    const auto replication = make_replication_policy("zipf");
    const auto placement = make_placement_policy("slf");
    layout = provision(scenario.problem(), *replication, *placement,
                       scenario.replica_budget())
                 .layout;
  }
};

TEST(RunCell, AggregatesRequestedRunCount) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 5;
  const CellStats stats = run_cell(f.layout, f.scenario.sim_config(),
                                   f.scenario.trace_spec(20.0), options);
  EXPECT_EQ(stats.rejection_rate.count(), 5u);
  EXPECT_EQ(stats.mean_imbalance_eq2.count(), 5u);
}

TEST(RunCell, DeterministicGivenSeed) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 4;
  options.base_seed = 777;
  const CellStats a = run_cell(f.layout, f.scenario.sim_config(),
                               f.scenario.trace_spec(35.0), options);
  const CellStats b = run_cell(f.layout, f.scenario.sim_config(),
                               f.scenario.trace_spec(35.0), options);
  EXPECT_DOUBLE_EQ(a.rejection_rate.mean(), b.rejection_rate.mean());
  EXPECT_DOUBLE_EQ(a.mean_imbalance_eq2.mean(), b.mean_imbalance_eq2.mean());
}

TEST(RunCell, PoolAndSerialAgree) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 4;
  ThreadPool pool(2);
  const CellStats serial = run_cell(f.layout, f.scenario.sim_config(),
                                    f.scenario.trace_spec(30.0), options);
  const CellStats pooled = run_cell(f.layout, f.scenario.sim_config(),
                                    f.scenario.trace_spec(30.0), options,
                                    &pool);
  EXPECT_DOUBLE_EQ(serial.rejection_rate.mean(),
                   pooled.rejection_rate.mean());
  EXPECT_DOUBLE_EQ(serial.mean_imbalance_cv.mean(),
                   pooled.mean_imbalance_cv.mean());
}

TEST(RunCell, LowLoadHasNoRejections) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 3;
  const CellStats stats = run_cell(f.layout, f.scenario.sim_config(),
                                   f.scenario.trace_spec(2.0), options);
  EXPECT_DOUBLE_EQ(stats.rejection_rate.mean(), 0.0);
}

TEST(RunCell, OverloadRejectsSubstantially) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 3;
  const double overload = 2.0 * f.scenario.saturation_rate_per_min();
  const CellStats stats = run_cell(f.layout, f.scenario.sim_config(),
                                   f.scenario.trace_spec(overload), options);
  EXPECT_GT(stats.rejection_rate.mean(), 0.2);
}

TEST(RunCell, RejectsZeroRuns) {
  RunnerFixture f;
  RunnerOptions options;
  options.runs = 0;
  EXPECT_THROW((void)run_cell(f.layout, f.scenario.sim_config(),
                              f.scenario.trace_spec(20.0), options),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
