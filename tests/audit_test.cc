#include "src/audit/audit.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/core/best_fit_placement.h"
#include "src/core/greedy_scalable.h"
#include "src/core/incremental_state.h"
#include "src/core/pipeline.h"
#include "src/core/round_robin_placement.h"
#include "src/core/sa_solver.h"
#include "src/core/slf_placement.h"
#include "src/hetero/hetero_placement.h"
#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

// ---------------------------------------------------------------------------
// Fixed-rate layout audits.

struct Fixture {
  std::size_t servers = 4;
  std::size_t capacity = 4;
  std::vector<double> popularity = zipf_popularity(10, 0.75);
  ReplicationPlan plan;
  Layout layout;

  Fixture() {
    plan = make_replication_policy("adams")->replicate(popularity, servers,
                                                       capacity * servers);
    layout = SmallestLoadFirstPlacement().place(plan, popularity, servers,
                                                capacity);
  }

  [[nodiscard]] LayoutAuditor::Limits limits() const {
    LayoutAuditor::Limits l;
    l.num_servers = servers;
    l.capacity_per_server = capacity;
    return l;
  }

  /// Rewrites the host lists through `edit` and repacks them verbatim: the
  /// packing constructor validates nothing, so the auditor sees the damage.
  template <typename Edit>
  void edit_hosts(Edit edit) {
    HostLists hosts = layout.host_lists();
    edit(hosts);
    layout = Layout(hosts);
  }
};

TEST(LayoutAudit, CleanSlfLayoutPasses) {
  const Fixture f;
  const AuditReport report =
      LayoutAuditor(f.limits()).audit(f.layout, &f.plan, &f.popularity);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks_performed, 0u);
}

TEST(LayoutAudit, CleanBestFitAndRoundRobinLayoutsPass) {
  const Fixture f;
  for (const Layout& layout :
       {BestFitPlacement().place(f.plan, f.popularity, f.servers, f.capacity),
        RoundRobinPlacement().place(f.plan, f.popularity, f.servers,
                                    f.capacity)}) {
    const AuditReport report =
        LayoutAuditor(f.limits()).audit(layout, &f.plan, &f.popularity);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(LayoutAudit, DuplicateServerReplicaFlagged) {
  Fixture f;
  // Eq. 6: replicas must be distinct
  f.edit_hosts([](HostLists& hosts) { hosts[0] = {1, 1}; });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has(ViolationKind::kDuplicateServer));
  for (const Violation& v : report.violations) {
    if (v.kind == ViolationKind::kDuplicateServer) {
      EXPECT_EQ(v.video, 0u);
      EXPECT_EQ(v.server, 1u);
    }
  }
}

TEST(LayoutAudit, OutOfRangeServerIdFlagged) {
  Fixture f;
  // Eq. 6: server id < N
  f.edit_hosts(
      [&](HostLists& hosts) { hosts[2].back() = f.servers + 3; });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  ASSERT_TRUE(report.has(ViolationKind::kServerOutOfRange));
  for (const Violation& v : report.violations) {
    if (v.kind == ViolationKind::kServerOutOfRange) {
      EXPECT_EQ(v.video, 2u);
      EXPECT_EQ(v.server, f.servers + 3);
      EXPECT_GT(v.margin(), 0.0);
    }
  }
}

TEST(LayoutAudit, FullVideoWithTripleDuplicateAndOutOfRangeHost) {
  // One video at r = N lists server 1 three times and server 7 once.  Only
  // that video's list is sorted and reported; the report below was recorded
  // before clean lists skipped the sort, and must not move.
  Fixture f;
  f.edit_hosts([](HostLists& hosts) { hosts[2] = {1, 7, 1, 1}; });
  ASSERT_EQ(f.layout.replicas(2), f.servers);
  const AuditReport report =
      LayoutAuditor(f.limits()).audit(f.layout, &f.plan, &f.popularity);
  EXPECT_EQ(report.checks_performed, 34u);
  std::ostringstream json;
  report.write_json(json);
  EXPECT_EQ(json.str(),
            "{\"ok\": false, \"checks\": 34, \"violations\": ["
            "{\"kind\": \"plan_mismatch\", \"video\": 2, \"actual\": 4, "
            "\"limit\": 2, \"margin\": 2}, "
            "{\"kind\": \"duplicate_server\", \"video\": 2, \"server\": 1, "
            "\"actual\": 3, \"limit\": 1, \"margin\": 2}, "
            "{\"kind\": \"server_out_of_range\", \"video\": 2, "
            "\"server\": 7, \"actual\": 7, \"limit\": 3, \"margin\": 4}, "
            "{\"kind\": \"storage_overflow\", \"server\": 1, \"actual\": 6, "
            "\"limit\": 4, \"margin\": 2}]}\n");
}

TEST(LayoutAudit, MissingReplicaFlagged) {
  Fixture f;
  // Eq. 7 lower bound: r_i >= 1
  f.edit_hosts([](HostLists& hosts) { hosts[5].clear(); });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  EXPECT_TRUE(report.has(ViolationKind::kNoReplica));
}

TEST(LayoutAudit, TooManyReplicasFlagged) {
  Fixture f;
  // Eq. 7 upper bound: r_i <= N
  f.edit_hosts([](HostLists& hosts) { hosts[0] = {0, 1, 2, 3, 0}; });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  EXPECT_TRUE(report.has(ViolationKind::kTooManyReplicas));
  EXPECT_TRUE(report.has(ViolationKind::kDuplicateServer));
}

TEST(LayoutAudit, StorageOverflowFlagged) {
  Fixture f;
  LayoutAuditor::Limits limits = f.limits();
  limits.capacity_per_server = 1;  // Eq. 4: the plan cannot fit one slot
  const AuditReport report = LayoutAuditor(limits).audit(f.layout);
  ASSERT_TRUE(report.has(ViolationKind::kStorageOverflow));
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.kind, ViolationKind::kStorageOverflow);
    EXPECT_GT(v.actual, v.limit);
  }
}

TEST(LayoutAudit, BandwidthOverflowFlagged) {
  Fixture f;
  LayoutAuditor::Limits limits = f.limits();
  // Eq. 5: 200 expected peak streams at 4 Mb/s over 4 servers cannot fit
  // 10 Mb/s links.
  limits.bandwidth_bps_per_server = units::mbps(10);
  limits.expected_peak_requests = 200.0;
  limits.bitrate_bps = units::mbps(4);
  const AuditReport report =
      LayoutAuditor(limits).audit(f.layout, &f.plan, &f.popularity);
  EXPECT_TRUE(report.has(ViolationKind::kBandwidthOverflow));
}

TEST(LayoutAudit, BandwidthCheckSkippedWithoutLoadModel) {
  const Fixture f;
  LayoutAuditor::Limits limits = f.limits();
  limits.bandwidth_bps_per_server = units::mbps(1);  // absurdly small...
  // ...but no expected_peak_requests / bitrate given, so Eq. 5 is skipped.
  const AuditReport report =
      LayoutAuditor(limits).audit(f.layout, &f.plan, &f.popularity);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(LayoutAudit, PlanMismatchFlagged) {
  Fixture f;
  ReplicationPlan other = f.plan;
  other.replicas[0] += 1;
  const AuditReport report =
      LayoutAuditor(f.limits()).audit(f.layout, &other, &f.popularity);
  EXPECT_TRUE(report.has(ViolationKind::kPlanMismatch));
}

TEST(LayoutAudit, ReportsEveryViolationNotJustTheFirst) {
  Fixture f;
  f.edit_hosts([](HostLists& hosts) {
    hosts[0] = {1, 1};
    hosts[1].clear();
    hosts[2].back() = 99;
  });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  EXPECT_TRUE(report.has(ViolationKind::kDuplicateServer));
  EXPECT_TRUE(report.has(ViolationKind::kNoReplica));
  EXPECT_TRUE(report.has(ViolationKind::kServerOutOfRange));
  EXPECT_GE(report.violations.size(), 3u);
  EXPECT_FALSE(report.ok_ignoring(ViolationKind::kDuplicateServer));
}

TEST(LayoutAudit, JsonReportIsWellFormedish) {
  Fixture f;
  f.edit_hosts([](HostLists& hosts) { hosts[0] = {1, 1}; });
  const AuditReport report = LayoutAuditor(f.limits()).audit(f.layout);
  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"duplicate_server\""), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Layout::validate delegates to the auditor.

TEST(LayoutValidate, RejectsVideoWithNoReplica) {
  Fixture f;
  f.edit_hosts([](HostLists& hosts) { hosts[3].clear(); });
  ReplicationPlan implied = f.layout.implied_plan();
  // The implied plan also says r_3 = 0, so this failure comes from the
  // Eq. 7 lower-bound check, not a plan mismatch.
  EXPECT_THROW(f.layout.validate(implied, f.servers, f.capacity),
               InvalidArgumentError);
}

TEST(LayoutValidate, ExtendedOverloadEnforcesBandwidth) {
  const Fixture f;
  f.layout.validate(f.plan, f.servers, f.capacity);  // base overload passes
  EXPECT_THROW(
      f.layout.validate(f.plan, f.servers, f.capacity, f.popularity,
                        /*bandwidth_bps_per_server=*/units::mbps(10),
                        /*expected_peak_requests=*/200.0,
                        /*bitrate_bps=*/units::mbps(4)),
      InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Scalable-rate solution audits.

ScalableProblem scalable_problem() {
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(30, 0.75);
  p.cluster.num_servers = 4;
  p.cluster.bandwidth_bps_per_server = units::gbps(1.0);
  p.cluster.storage_bytes_per_server = units::gigabytes(150.0);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4)};
  p.expected_peak_requests = 300.0;
  return p;
}

TEST(SolutionAudit, CleanInitialSolutionPasses) {
  const ScalableProblem problem = scalable_problem();
  const ScalableSolution solution = lowest_rate_round_robin(problem);
  const AuditReport report = LayoutAuditor::audit_solution(problem, solution);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SolutionAudit, GreedySolverOutputPasses) {
  const ScalableProblem problem = scalable_problem();
  const AuditReport report =
      LayoutAuditor::audit_solution(problem, greedy_scalable(problem));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SolutionAudit, SaSolverOutputPasses) {
  const ScalableProblem problem = scalable_problem();
  SaSolverOptions options;
  options.anneal.moves_per_temperature = 50;
  options.anneal.stall_steps = 10;
  const SaSolverResult result = solve_scalable(problem, 17, options);
  const AuditReport report =
      LayoutAuditor::audit_solution(problem, result.solution);
  if (result.feasible) {
    EXPECT_TRUE(report.ok()) << report.summary();
  } else {
    EXPECT_TRUE(report.ok_ignoring(ViolationKind::kBandwidthOverflow))
        << report.summary();
  }
}

TEST(SolutionAudit, LadderIndexOutOfRangeFlagged) {
  const ScalableProblem problem = scalable_problem();
  ScalableSolution solution = lowest_rate_round_robin(problem);
  solution.bitrate_index[7] = problem.ladder.size();
  const AuditReport report = LayoutAuditor::audit_solution(problem, solution);
  EXPECT_TRUE(report.has(ViolationKind::kLadderIndexOutOfRange));
}

TEST(SolutionAudit, ScalableStorageOverflowFlagged) {
  ScalableProblem problem = scalable_problem();
  // Shrink storage until even the one-replica lowest-rate layout cannot fit
  // its share on server 0.
  problem.cluster.storage_bytes_per_server =
      units::video_bytes(problem.videos.duration_sec,
                         problem.ladder.rates_bps[0]) *
      1.5;
  ScalableSolution solution;
  solution.bitrate_index.assign(problem.videos.count(), 0);
  solution.placement.assign(problem.videos.count(), {0});
  const AuditReport report = LayoutAuditor::audit_solution(problem, solution);
  ASSERT_TRUE(report.has(ViolationKind::kStorageOverflow));
}

TEST(SolutionAudit, ScalableBandwidthOverflowFlagged) {
  ScalableProblem problem = scalable_problem();
  problem.cluster.bandwidth_bps_per_server = units::mbps(1);
  const ScalableSolution solution = lowest_rate_round_robin(problem);
  const AuditReport report = LayoutAuditor::audit_solution(problem, solution);
  EXPECT_TRUE(report.has(ViolationKind::kBandwidthOverflow));
}

// ---------------------------------------------------------------------------
// IncrementalState cross-checks (Eq. 1/2/3 recomputation).

TEST(StateAudit, FreshStatePasses) {
  const ScalableProblem problem = scalable_problem();
  const IncrementalState state(problem, lowest_rate_round_robin(problem));
  const AuditReport report = LayoutAuditor::audit_state(state);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(StateAudit, StateSurvivesAnEditSession) {
  const ScalableProblem problem = scalable_problem();
  IncrementalState state(problem, lowest_rate_round_robin(problem));
  state.set_bitrate(0, 1);
  state.add_replica(0, (state.replicas_of(0)[0] + 1) %
                           problem.cluster.num_servers);
  state.set_bitrate(3, 2);
  state.commit();
  const AuditReport report = LayoutAuditor::audit_state(state);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(StateAudit, InjectedStorageDriftCaught) {
  const ScalableProblem problem = scalable_problem();
  IncrementalState state(problem, lowest_rate_round_robin(problem));
  state.debug_inject_drift(/*server=*/1, /*storage_delta_bytes=*/1e9,
                           /*bandwidth_delta_bps=*/0.0);
  const AuditReport report = LayoutAuditor::audit_state(state);
  ASSERT_TRUE(report.has(ViolationKind::kCachedStorageDrift));
  EXPECT_FALSE(report.has(ViolationKind::kCachedBandwidthDrift));
  for (const Violation& v : report.violations) {
    if (v.kind == ViolationKind::kCachedStorageDrift) {
      EXPECT_EQ(v.server, 1u);
    }
  }
}

TEST(StateAudit, InjectedBandwidthDriftCaught) {
  const ScalableProblem problem = scalable_problem();
  IncrementalState state(problem, lowest_rate_round_robin(problem));
  state.debug_inject_drift(/*server=*/2, /*storage_delta_bytes=*/0.0,
                           /*bandwidth_delta_bps=*/units::mbps(50));
  const AuditReport report = LayoutAuditor::audit_state(state);
  EXPECT_TRUE(report.has(ViolationKind::kCachedBandwidthDrift));
  EXPECT_FALSE(report.has(ViolationKind::kCachedStorageDrift));
}

TEST(StateAudit, TinyFloatNoiseToleratedByDriftCheck) {
  const ScalableProblem problem = scalable_problem();
  IncrementalState state(problem, lowest_rate_round_robin(problem));
  // Well under the 1e-7 relative tolerance for byte-scale magnitudes.
  state.debug_inject_drift(/*server=*/0, /*storage_delta_bytes=*/1e-3,
                           /*bandwidth_delta_bps=*/1e-3);
  const AuditReport report = LayoutAuditor::audit_state(state);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Heterogeneous placement audits through the shared structural checks.

TEST(HeteroAudit, WeightedGreedyOutputPasses) {
  const std::vector<double> popularity = zipf_popularity(12, 0.75);
  ReplicationPlan plan;
  plan.replicas.assign(12, 2);
  const std::vector<double> bandwidth = {units::gbps(1.0), units::gbps(2.0),
                                         units::gbps(1.5)};
  const std::vector<std::size_t> slots = {10, 10, 10};
  const Layout layout = weighted_greedy_place(plan, popularity, bandwidth,
                                              slots);
  LayoutAuditor::Limits limits;
  limits.num_servers = bandwidth.size();
  limits.capacity_per_server = 10;
  const AuditReport report =
      LayoutAuditor(limits).audit(layout, &plan, &popularity);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace vodrep
