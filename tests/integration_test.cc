// End-to-end tests: popularity -> replication -> placement -> simulation,
// checking the qualitative claims of the paper's Section 5 on scaled-down
// instances (fewer videos/runs so the suite stays fast).
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/exp/experiments.h"
#include "src/exp/runner.h"
#include "src/exp/scenario.h"

namespace vodrep {
namespace {

PaperScenario small_scenario(double theta, double degree) {
  PaperScenario scenario;
  scenario.num_videos = 60;
  scenario.theta = theta;
  scenario.replication_degree = degree;
  return scenario;
}

double rejection_at(const PaperScenario& scenario, const std::string& repl,
                    const std::string& place, double rate_per_min,
                    std::size_t runs = 6) {
  const auto replication = make_replication_policy(repl);
  const auto placement = make_placement_policy(place);
  const Layout layout = provision(scenario.problem(), *replication, *placement,
                                  scenario.replica_budget())
                            .layout;
  RunnerOptions options;
  options.runs = runs;
  return run_cell(layout, scenario.sim_config(),
                  scenario.trace_spec(rate_per_min), options)
      .rejection_rate.mean();
}

TEST(Integration, RejectionDropsFromNoReplicationToDegree12) {
  // Section 5.1: "the rejection rate decreases dramatically from
  // non-replication to low replication degree 1.2".
  const double at_saturation = 40.0;
  const double none =
      rejection_at(small_scenario(0.75, 1.0), "zipf", "slf", at_saturation);
  const double low =
      rejection_at(small_scenario(0.75, 1.2), "zipf", "slf", at_saturation);
  EXPECT_LT(low, none);
}

TEST(Integration, ZipfSlfBeatsClassificationRoundRobin) {
  // Section 5.2's headline comparison at low replication degree.
  const PaperScenario scenario = small_scenario(0.75, 1.2);
  const double best = rejection_at(scenario, "zipf", "slf", 40.0);
  const double baseline =
      rejection_at(scenario, "classification", "round-robin", 40.0);
  EXPECT_LE(best, baseline + 1e-9);
}

TEST(Integration, NoRejectionsWellBelowSaturation) {
  // A balanced layout rejects nothing at 40% of the saturation rate.
  const double r = rejection_at(small_scenario(0.75, 1.4), "zipf", "slf", 16.0);
  EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(Integration, OverloadRejectsRoughlyTheExcess) {
  // 25% above saturation must reject on the order of the excess load.
  const double r = rejection_at(small_scenario(0.75, 1.8), "zipf", "slf", 50.0);
  EXPECT_GT(r, 0.10);
  EXPECT_LT(r, 0.40);
}

TEST(Integration, HigherDegreeNeverMuchWorse) {
  // Theorem 4.3's operational consequence: growing the replication degree
  // does not hurt (up to simulation noise).
  const double d12 = rejection_at(small_scenario(1.0, 1.2), "zipf", "slf", 40.0);
  const double d18 = rejection_at(small_scenario(1.0, 1.8), "zipf", "slf", 40.0);
  EXPECT_LE(d18, d12 + 0.02);
}

std::vector<Section> fig6_quick() {
  ThreadPool pool;
  return find_experiment("E6")->run(Grid::kQuick, pool);
}

TEST(Integration, Fig6TableHasExpectedShape) {
  const std::vector<Section> panels = fig6_quick();
  ASSERT_EQ(panels.size(), 3u);
  for (std::size_t p = 0; p < 2; ++p) {
    const Table& table = panels[p].table;
    EXPECT_EQ(table.columns(), 5u);  // rate + 4 combos
    EXPECT_EQ(table.rows(), 6u);     // the quick grid's arrival rates
    for (const auto& combo : paper_combos()) {
      EXPECT_NO_THROW((void)table.value(0, "L%_" + combo.label()));
    }
  }
}

TEST(Integration, Fig6DegreeMergePanelHasExpectedShape) {
  const std::vector<Section> panels = fig6_quick();
  ASSERT_EQ(panels.size(), 3u);
  const Table& table = panels[2].table;
  EXPECT_EQ(table.columns(), 6u);  // rate + 5 degrees
  EXPECT_EQ(table.rows(), 6u);
  for (const char* column : {"L%_d=1", "L%_d=1.2", "L%_d=1.4", "L%_d=1.6",
                             "L%_d=1.8"}) {
    EXPECT_NO_THROW((void)table.value(0, column)) << column;
  }
}

TEST(Integration, PaperCombosAreTheFourOfTheEvaluation) {
  const auto combos = paper_combos();
  ASSERT_EQ(combos.size(), 4u);
  EXPECT_EQ(combos[0].label(), "zipf+slf");
  EXPECT_EQ(combos[3].label(), "classification+round-robin");
}

}  // namespace
}  // namespace vodrep
