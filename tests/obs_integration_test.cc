// End-to-end reconciliation of the obs layer with the library's own result
// structs: the counters a run folds into the global registry must agree
// bit-exactly with the AnnealResult / SimResult the same run returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/sa_solver.h"
#include "src/core/striping.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/online/controller.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

/// Every test runs against a cleared global registry with metrics on, and
/// restores the disabled default so the rest of the binary stays unobserved.
class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::metrics().clear();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::TraceRecorder::global().set_enabled(false);
    obs::TraceRecorder::global().clear();
    obs::metrics().clear();
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

TEST_F(ObsIntegrationTest, SaCountersReconcileWithAnnealResult) {
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 60;
  options.anneal.final_temperature = 1e-3;
  options.anneal.stall_steps = 20;

  const SaSolverResult result = solve_scalable(small_problem(), 2002, options);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();

  EXPECT_EQ(snap.counters.at("sa.solves"), 1u);
  EXPECT_EQ(snap.counters.at("sa.chains"), 1u);
  EXPECT_EQ(snap.counters.at("sa.moves_proposed"),
            result.anneal.moves_proposed);
  EXPECT_EQ(snap.counters.at("sa.moves_accepted"),
            result.anneal.moves_accepted);
  EXPECT_EQ(snap.counters.at("sa.moves_noop"), result.anneal.moves_noop);
  EXPECT_EQ(snap.counters.at("sa.temperature_steps"),
            result.anneal.temperature_steps);
  EXPECT_LE(snap.counters.at("sa.moves_accepted"),
            snap.counters.at("sa.moves_proposed"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("sa.best_objective"), result.objective);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sa.final_temperature"),
                   result.anneal.final_temperature);
}

TEST_F(ObsIntegrationTest, SaCountersAccumulateAcrossSolves) {
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 20;
  options.anneal.final_temperature = 0.1;
  options.anneal.stall_steps = 0;

  const ScalableProblem problem = small_problem();
  const SaSolverResult first = solve_scalable(problem, 1, options);
  const SaSolverResult second = solve_scalable(problem, 2, options);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("sa.solves"), 2u);
  EXPECT_EQ(snap.counters.at("sa.moves_proposed"),
            first.anneal.moves_proposed + second.anneal.moves_proposed);
}

TEST_F(ObsIntegrationTest, SimCountersReconcileWithSimResult) {
  const std::size_t servers = 4;
  const std::vector<double> popularity = zipf_popularity(24, 0.75);
  const auto replication = make_replication_policy("adams");
  const auto placement = make_placement_policy("slf");
  const Layout layout =
      provision_by_id(popularity, *replication, *placement, servers,
                      /*budget=*/32, /*capacity_per_server=*/8)
          .layout;

  SimConfig config;
  config.num_servers = servers;
  // Tight bandwidth so some requests are rejected and the admitted/rejected
  // split is non-trivial.
  config.bandwidth_bps_per_server = units::mbps(40);
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = units::minutes(10);

  TraceSpec spec;
  spec.arrival_rate = 0.5;
  spec.horizon = units::minutes(30);
  spec.popularity = popularity;
  Rng rng(7);
  const RequestTrace trace = generate_trace(rng, spec);

  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config);
  const SimResult result = engine.run(policy, trace);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();

  EXPECT_EQ(snap.counters.at("sim.runs"), 1u);
  EXPECT_EQ(snap.counters.at("sim.requests"), result.total_requests);
  EXPECT_EQ(snap.counters.at("sim.rejected"), result.rejected);
  EXPECT_EQ(snap.counters.at("sim.admitted"),
            result.total_requests - result.rejected);
  // requests == admitted + rejected, bit-exactly.
  EXPECT_EQ(snap.counters.at("sim.requests"),
            snap.counters.at("sim.admitted") +
                snap.counters.at("sim.rejected"));
  EXPECT_EQ(snap.counters.at("sim.redirected"), result.redirected);
  EXPECT_EQ(snap.counters.at("sim.batched"), result.batched);
  EXPECT_EQ(snap.counters.at("sim.disrupted"), result.disrupted);
  EXPECT_GT(result.rejected, 0u);  // the tight config did bite
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.mean_imbalance_eq2"),
                   result.mean_imbalance_eq2);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.mean_utilization"),
                   result.mean_utilization());
  // Admitted streams outnumber the heap high water only if departures
  // fired; the high water itself is at least one once anything ran.
  EXPECT_GE(snap.gauges.at("sim.heap_high_water"), 1.0);

  // The trace-side counters agree with the event bookkeeping: every
  // departure either fired or was cancelled by a crash (none here).
  EXPECT_EQ(snap.counters.at("sim.events.failure"), 0u);
  EXPECT_EQ(snap.counters.at("sim.events.cancelled"), 0u);
}

/// One replay through simulate(), exported into the cleared global
/// registry: the returned result and what the run folded.
struct ExportedReplay {
  SimResult result;
  obs::MetricsSnapshot snap;
};

ExportedReplay replay_and_export(StoragePolicy&& policy,
                                 const RequestTrace& trace) {
  obs::metrics().clear();
  ExportedReplay out;
  out.result = simulate(policy, trace);
  out.snap = obs::metrics().snapshot();
  return out;
}

/// The export of one replay reconciles exactly with its SimResult,
/// rejection attribution included.
void expect_export_matches_result(const ExportedReplay& run) {
  const obs::MetricsSnapshot& snap = run.snap;
  const SimResult& result = run.result;
  EXPECT_EQ(snap.counters.at("sim.runs"), 1u);
  EXPECT_EQ(snap.counters.at("sim.requests"), result.total_requests);
  EXPECT_EQ(snap.counters.at("sim.rejected"), result.rejected);
  EXPECT_EQ(snap.counters.at("sim.disrupted"), result.disrupted);
  for (std::size_t r = 0; r < obs::kNumRejectReasons; ++r) {
    const std::string name =
        "sim.rejected." + std::string(obs::reject_reason_name(
                              static_cast<obs::RejectReason>(r)));
    EXPECT_EQ(snap.counters.at(name), result.rejected_by_reason[r]) << name;
  }
}

TEST_F(ObsIntegrationTest, CrashingReplaysExportTheirResults) {
  // 16 servers of five 4 Mbps streams each, two mid-peak crashes, and an
  // offered load (~120 streams) above the 80-stream cluster capacity, so
  // the replay rejects for several reasons and crashes drop streams.
  const std::size_t servers = 16;
  const std::size_t videos = 32;
  SimConfig config;
  config.num_servers = servers;
  config.bandwidth_bps_per_server = units::mbps(20);
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 120.0;
  config.failures = {{150.0, 3}, {400.0, 10}};

  const std::vector<double> popularity = zipf_popularity(videos, 0.75);
  TraceSpec spec;
  spec.arrival_rate = 1.0;
  spec.horizon = 600.0;
  spec.popularity = popularity;
  spec.abandonment.completion_probability = 0.7;
  Rng rng(19);
  const RequestTrace trace = generate_trace(rng, spec);

  const auto replication = make_replication_policy("adams");
  const auto placement = make_placement_policy("slf");
  const Layout layout =
      provision_by_id(popularity, *replication, *placement, servers,
                      /*budget=*/48, /*capacity_per_server=*/3)
          .layout;
  // Two 2-wide stripe-group copies per video inside one of four disjoint
  // 4-server blocks.
  HybridLayout hybrid;
  hybrid.groups.resize(videos);
  for (std::size_t v = 0; v < videos; ++v) {
    const std::size_t block = 4 * (v % 4);
    hybrid.groups[v] = {{block, block + 1}, {block + 2, block + 3}};
  }

  const ExportedReplay replicated =
      replay_and_export(ReplicatedPolicy(layout, config), trace);
  const ExportedReplay hybrid_run =
      replay_and_export(HybridPolicy(hybrid, config), trace);

  for (const ExportedReplay* run : {&replicated, &hybrid_run}) {
    expect_export_matches_result(*run);
    EXPECT_GT(run->result.disrupted, 0u);
    EXPECT_EQ(run->snap.counters.at("sim.events.failure"), 2u);
  }
  // Hybrid crashes cancel the dropped streams' departures.
  EXPECT_GT(hybrid_run.snap.counters.at("sim.events.cancelled"), 0u);
  using obs::RejectReason;
  const auto rejected_for = [](const ExportedReplay& run, RejectReason r) {
    return run.result.rejected_by_reason[static_cast<std::size_t>(r)];
  };
  EXPECT_GT(rejected_for(replicated, RejectReason::kNoBandwidth), 0u);
  EXPECT_GT(rejected_for(replicated, RejectReason::kNoReplicaAlive), 0u);
  EXPECT_GT(rejected_for(hybrid_run, RejectReason::kNoBandwidth), 0u);
  EXPECT_GT(rejected_for(hybrid_run, RejectReason::kStripeUnavailable), 0u);
}

TEST_F(ObsIntegrationTest, ControllerCountersReconcileWithAdaptCalls) {
  const std::size_t videos = 16;
  ControllerConfig config;
  config.num_servers = 4;
  config.budget = 20;
  config.capacity_per_server = 5;
  config.replan_threshold = 0.05;
  AdaptiveController controller(config, zipf_popularity(videos, 0.75));

  std::size_t replans = 0;
  std::size_t skips = 0;
  Rng rng(11);
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    std::vector<std::size_t> counts(videos, 0);
    for (int i = 0; i < 200; ++i) {
      // Drifting observation stream: later epochs favor later ids.
      ++counts[(rng.uniform_index(videos) + epoch) % videos];
    }
    controller.observe_epoch(counts);
    const AdaptationStep step = controller.adapt();
    if (step.replanned) {
      ++replans;
    } else {
      ++skips;
    }
  }
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.epochs_observed"), 6u);
  const std::uint64_t counted_replans =
      snap.counters.count("online.replans") != 0
          ? snap.counters.at("online.replans")
          : 0;
  const std::uint64_t counted_skips =
      snap.counters.count("online.replans_skipped") != 0
          ? snap.counters.at("online.replans_skipped")
          : 0;
  EXPECT_EQ(counted_replans, replans);
  EXPECT_EQ(counted_skips, skips);
  EXPECT_EQ(counted_replans + counted_skips, 6u);
}

TEST_F(ObsIntegrationTest, DisabledMetricsFoldNothing) {
  obs::set_metrics_enabled(false);
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 20;
  options.anneal.final_temperature = 0.1;
  (void)solve_scalable(small_problem(), 3, options);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
}

TEST_F(ObsIntegrationTest, GlobalSnapshotSurfacesTraceHealthCounters) {
  // The metrics export must answer "did the trace itself drop anything":
  // overflow a capacity-2 recorder and check the global snapshot carries
  // the recorder's own counters exactly.
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.set_enabled(true, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    recorder.record_complete("span", /*ts_ns=*/0, /*dur_ns=*/1, 0, 0);
  }
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  ASSERT_TRUE(snap.counters.contains("trace.events_recorded"));
  EXPECT_EQ(snap.counters.at("trace.events_recorded"),
            recorder.events_recorded());
  EXPECT_EQ(snap.counters.at("trace.events_dropped"),
            recorder.events_dropped());
  EXPECT_EQ(recorder.events_recorded(), 2u);
  EXPECT_EQ(recorder.events_dropped(), 3u);
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
