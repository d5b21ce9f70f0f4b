// End-to-end check of the trace recorder against the library: an armed
// recorder captures the spans a solve opens.
#include <gtest/gtest.h>

#include <string_view>

#include "src/core/sa_solver.h"
#include "src/obs/trace.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

/// Restores the disarmed, empty recorder so the rest of the binary stays
/// unobserved.
class ObsIntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::TraceRecorder::global().set_enabled(false);
    obs::TraceRecorder::global().clear();
  }
};

ScalableProblem small_problem() {
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(12, 0.75);
  p.cluster.num_servers = 4;
  p.cluster.bandwidth_bps_per_server = units::gbps(1.0);
  p.cluster.storage_bytes_per_server = units::gigabytes(30.0);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4),
                        units::mbps(8)};
  p.expected_peak_requests = 500.0;
  return p;
}

TEST_F(ObsIntegrationTest, TraceCapturesSolveAndSimSpans) {
  obs::TraceRecorder::global().set_enabled(true, /*capacity=*/1024);
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 20;
  options.anneal.final_temperature = 0.1;
  (void)solve_scalable(small_problem(), 4, options);
  // A single-chain solve runs the one driver, so its span is sa.pt.
  bool saw_solve = false;
  bool saw_pt = false;
  for (const obs::TraceEvent& event :
       obs::TraceRecorder::global().events()) {
    if (std::string_view(event.name) == "sa.solve") saw_solve = true;
    if (std::string_view(event.name) == "sa.pt") saw_pt = true;
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_pt);
}

}  // namespace
}  // namespace vodrep
