#include "src/audit/audit.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <sstream>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

/// Relative slack on physically continuous bounds (storage bytes, bandwidth
/// bps), absorbing float accumulation; matches is_feasible's convention.
constexpr double kContinuousSlack = 1.0 + 1e-9;

/// Drift comparison for cached-vs-fresh cross-checks: relative to the larger
/// magnitude, with an absolute floor of `tolerance` so near-zero quantities
/// are not held to an impossible standard.
bool drift_close(double cached, double fresh, double tolerance) {
  const double scale =
      std::max({1.0, std::abs(cached), std::abs(fresh)});
  return std::abs(cached - fresh) <= tolerance * scale;
}

void add(AuditReport& report, ViolationKind kind, std::size_t video,
         std::size_t server, double actual, double limit) {
  report.violations.push_back(Violation{kind, video, server, actual, limit});
}

/// Reports every Eq. 6/7 violation of one video's host list, in a fixed
/// order: no replica, too many, duplicates by server, then out-of-range
/// hosts in list order.  `Hosts` is a layout's span of 32-bit ids or a
/// scalable solution's vector.
template <typename Hosts>
void report_structure(AuditReport& report, std::size_t video,
                      const Hosts& servers, std::size_t num_servers) {
  if (servers.empty()) {
    add(report, ViolationKind::kNoReplica, video, Violation::kNone,
        /*actual=*/0.0, /*limit=*/1.0);
  }
  if (servers.size() > num_servers) {
    add(report, ViolationKind::kTooManyReplicas, video, Violation::kNone,
        static_cast<double>(servers.size()),
        static_cast<double>(num_servers));
  }
  std::vector<std::size_t> sorted(servers.begin(), servers.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 1; k < sorted.size(); ++k) {
    if (sorted[k] == sorted[k - 1] && (k < 2 || sorted[k] != sorted[k - 2])) {
      add(report, ViolationKind::kDuplicateServer, video, sorted[k],
          static_cast<double>(std::count(sorted.begin(), sorted.end(),
                                         sorted[k])),
          /*limit=*/1.0);
    }
  }
  for (std::size_t s : servers) {
    if (s >= num_servers) {
      add(report, ViolationKind::kServerOutOfRange, video, s,
          static_cast<double>(s), static_cast<double>(num_servers) - 1.0);
    }
  }
}

/// Eq. 6/7 structural checks for one video's host list.  Out-of-range hosts
/// are reported here and skipped by the usage accumulation.  `stamp` holds
/// one entry per server, shared by every video of one audit: the last video
/// (plus one) that listed the server, so a clean list is checked in one
/// pass without a copy, and only a list with a violation is sorted.
template <typename Hosts>
void check_structure(AuditReport& report, std::size_t video,
                     const Hosts& servers, std::size_t num_servers,
                     std::vector<std::size_t>& stamp) {
  report.checks_performed += 3;
  bool clean = !servers.empty() && servers.size() <= num_servers;
  for (std::size_t k = 0; clean && k < servers.size(); ++k) {
    const std::size_t s = servers[k];
    clean = s < num_servers && stamp[s] != video + 1;
    if (clean) stamp[s] = video + 1;
  }
  if (!clean) report_structure(report, video, servers, num_servers);
}

/// From-first-principles per-server usage of a scalable solution, plus the
/// running sums the objective needs.  Reads only raw problem/solution fields.
struct FreshUsage {
  std::vector<double> storage_bytes;
  std::vector<double> bandwidth_bps;
  double rate_sum_mbps = 0.0;
  std::size_t replica_sum = 0;
};

FreshUsage recompute_usage(const ScalableProblem& problem,
                           const ScalableSolution& solution) {
  const std::size_t n = problem.cluster.num_servers;
  FreshUsage usage;
  usage.storage_bytes.assign(n, 0.0);
  usage.bandwidth_bps.assign(n, 0.0);
  for (std::size_t i = 0; i < solution.num_videos(); ++i) {
    const std::size_t idx = solution.bitrate_index[i];
    if (idx >= problem.ladder.size()) continue;  // reported separately
    const auto& servers = solution.placement[i];
    if (servers.empty()) continue;
    const double rate = problem.ladder.rates_bps[idx];
    const double bytes =
        units::video_bytes(problem.videos.duration_sec, rate);
    const double per_replica_bps =
        problem.expected_peak_requests * problem.videos.popularity[i] /
        static_cast<double>(servers.size()) * rate;
    for (std::size_t s : servers) {
      if (s >= n) continue;  // reported separately
      usage.storage_bytes[s] += bytes;
      usage.bandwidth_bps[s] += per_replica_bps;
    }
    usage.rate_sum_mbps += units::to_mbps(rate);
    usage.replica_sum += servers.size();
  }
  return usage;
}

/// Independent Eq. 2/3 imbalance of a load vector.
double recompute_imbalance(const std::vector<double>& loads,
                           ImbalanceDefinition definition) {
  const auto n = static_cast<double>(loads.size());
  double sum = 0.0;
  for (double l : loads) sum += l;
  const double mean = sum / n;
  if (mean <= 0.0) return 0.0;
  if (definition == ImbalanceDefinition::kMaxRelative) {
    const double max = *std::max_element(loads.begin(), loads.end());
    return std::max(0.0, (max - mean) / mean);
  }
  double sq = 0.0;
  for (double l : loads) sq += (l - mean) * (l - mean);
  return std::sqrt(sq / n) / mean;
}

/// Independent Eq. 1 objective from the fresh usage.
double recompute_objective(const ScalableProblem& problem,
                           const ScalableSolution& solution,
                           const FreshUsage& usage) {
  const auto m = static_cast<double>(solution.num_videos());
  const auto n = static_cast<double>(problem.cluster.num_servers);
  const double mean_rate_mbps = usage.rate_sum_mbps / m;
  const double mean_degree_normalized =
      static_cast<double>(usage.replica_sum) / m / n;
  const double imbalance = recompute_imbalance(
      usage.bandwidth_bps, problem.weights.imbalance_definition);
  return mean_rate_mbps + problem.weights.alpha * mean_degree_normalized -
         problem.weights.beta * imbalance;
}

}  // namespace

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kPlanMismatch: return "plan_mismatch";
    case ViolationKind::kNoReplica: return "no_replica";
    case ViolationKind::kTooManyReplicas: return "too_many_replicas";
    case ViolationKind::kDuplicateServer: return "duplicate_server";
    case ViolationKind::kServerOutOfRange: return "server_out_of_range";
    case ViolationKind::kLadderIndexOutOfRange:
      return "ladder_index_out_of_range";
    case ViolationKind::kStorageOverflow: return "storage_overflow";
    case ViolationKind::kBandwidthOverflow: return "bandwidth_overflow";
    case ViolationKind::kCachedStorageDrift: return "cached_storage_drift";
    case ViolationKind::kCachedBandwidthDrift:
      return "cached_bandwidth_drift";
    case ViolationKind::kCachedObjectiveDrift:
      return "cached_objective_drift";
    case ViolationKind::kCachedOverflowDrift: return "cached_overflow_drift";
    case ViolationKind::kCachedMaxLoadDrift: return "cached_max_load_drift";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::ostringstream os;
  os << violation_kind_name(kind);
  if (video != kNone) os << " video=" << video;
  if (server != kNone) os << " server=" << server;
  os << " actual=" << actual << " limit=" << limit
     << " margin=" << margin();
  return os.str();
}

bool AuditReport::has(ViolationKind kind) const { return count(kind) > 0; }

std::size_t AuditReport::count(ViolationKind kind) const {
  std::size_t total = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++total;
  }
  return total;
}

bool AuditReport::ok_ignoring(ViolationKind kind) const {
  for (const Violation& v : violations) {
    if (v.kind != kind) return false;
  }
  return true;
}

std::string AuditReport::summary() const {
  if (ok()) {
    std::ostringstream os;
    os << "all " << checks_performed << " checks passed";
    return os.str();
  }
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const Violation& v : violations) os << "\n  " << v.to_string();
  return os.str();
}

void AuditReport::write_json(std::ostream& os) const {
  os << "{\"ok\": " << (ok() ? "true" : "false")
     << ", \"checks\": " << checks_performed << ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) os << ", ";
    os << "{\"kind\": \"" << violation_kind_name(v.kind) << "\"";
    if (v.video != Violation::kNone) os << ", \"video\": " << v.video;
    if (v.server != Violation::kNone) os << ", \"server\": " << v.server;
    os << ", \"actual\": " << v.actual << ", \"limit\": " << v.limit
       << ", \"margin\": " << v.margin() << "}";
  }
  os << "]}\n";
}

LayoutAuditor::LayoutAuditor(Limits limits) : limits_(limits) {
  require(limits_.num_servers >= 1, "LayoutAuditor: need a server");
}

AuditReport LayoutAuditor::audit(
    const Layout& layout, const ReplicationPlan* plan,
    const std::vector<double>* popularity) const {
  const std::size_t n = limits_.num_servers;
  const std::size_t m = layout.num_videos();
  require(popularity == nullptr || popularity->size() == m,
          "LayoutAuditor: popularity size mismatch");

  AuditReport report;
  if (plan != nullptr && plan->replicas.size() != m) {
    add(report, ViolationKind::kPlanMismatch, Violation::kNone,
        Violation::kNone, static_cast<double>(m),
        static_cast<double>(plan->replicas.size()));
  }

  std::vector<std::size_t> stored(n, 0);
  std::vector<double> load_share(n, 0.0);
  std::vector<std::size_t> stamp(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const std::uint32_t> servers = layout.hosts(i);
    if (plan != nullptr && i < plan->replicas.size() &&
        servers.size() != plan->replicas[i]) {
      add(report, ViolationKind::kPlanMismatch, i, Violation::kNone,
          static_cast<double>(servers.size()),
          static_cast<double>(plan->replicas[i]));
    }
    check_structure(report, i, servers, n, stamp);
    const double share =
        popularity == nullptr || servers.empty()
            ? 0.0
            : (*popularity)[i] / static_cast<double>(servers.size());
    for (const std::size_t s : servers) {
      if (s >= n) continue;  // already reported
      ++stored[s];
      load_share[s] += share;
    }
  }

  const bool check_bandwidth =
      popularity != nullptr &&
      limits_.bandwidth_bps_per_server !=
          std::numeric_limits<double>::infinity() &&
      limits_.expected_peak_requests > 0.0 && limits_.bitrate_bps > 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    ++report.checks_performed;
    if (stored[s] > limits_.capacity_per_server) {
      add(report, ViolationKind::kStorageOverflow, Violation::kNone, s,
          static_cast<double>(stored[s]),
          static_cast<double>(limits_.capacity_per_server));
    }
    if (check_bandwidth) {
      ++report.checks_performed;
      const double load_bps = load_share[s] *
                              limits_.expected_peak_requests *
                              limits_.bitrate_bps;
      if (load_bps >
          limits_.bandwidth_bps_per_server * kContinuousSlack) {
        add(report, ViolationKind::kBandwidthOverflow, Violation::kNone, s,
            load_bps, limits_.bandwidth_bps_per_server);
      }
    }
  }
  return report;
}

AuditReport LayoutAuditor::audit_solution(const ScalableProblem& problem,
                                          const ScalableSolution& solution) {
  const std::size_t n = problem.cluster.num_servers;
  require(solution.bitrate_index.size() == problem.videos.count() &&
              solution.placement.size() == problem.videos.count(),
          "LayoutAuditor: solution/problem size mismatch");

  AuditReport report;
  std::vector<std::size_t> stamp(n, 0);
  for (std::size_t i = 0; i < solution.num_videos(); ++i) {
    ++report.checks_performed;
    if (solution.bitrate_index[i] >= problem.ladder.size()) {
      add(report, ViolationKind::kLadderIndexOutOfRange, i, Violation::kNone,
          static_cast<double>(solution.bitrate_index[i]),
          static_cast<double>(problem.ladder.size()) - 1.0);
    }
    check_structure(report, i, solution.placement[i], n, stamp);
  }

  const FreshUsage usage = recompute_usage(problem, solution);
  for (std::size_t s = 0; s < n; ++s) {
    report.checks_performed += 2;
    if (usage.storage_bytes[s] >
        problem.cluster.storage_bytes_per_server * kContinuousSlack) {
      add(report, ViolationKind::kStorageOverflow, Violation::kNone, s,
          usage.storage_bytes[s], problem.cluster.storage_bytes_per_server);
    }
    if (usage.bandwidth_bps[s] >
        problem.cluster.bandwidth_bps_per_server * kContinuousSlack) {
      add(report, ViolationKind::kBandwidthOverflow, Violation::kNone, s,
          usage.bandwidth_bps[s], problem.cluster.bandwidth_bps_per_server);
    }
  }
  return report;
}

AuditReport LayoutAuditor::audit_state(const IncrementalState& state,
                                       double drift_tolerance) {
  const ScalableProblem& problem = state.problem();
  // The SoA state keeps no solution object live; materialize one snapshot
  // and run every structural + drift check against it.
  const ScalableSolution solution = state.to_solution();
  AuditReport report = audit_solution(problem, solution);

  const FreshUsage usage = recompute_usage(problem, solution);
  const std::size_t n = problem.cluster.num_servers;
  for (std::size_t s = 0; s < n; ++s) {
    report.checks_performed += 2;
    if (!drift_close(state.storage_bytes()[s], usage.storage_bytes[s],
                     drift_tolerance)) {
      add(report, ViolationKind::kCachedStorageDrift, Violation::kNone, s,
          state.storage_bytes()[s], usage.storage_bytes[s]);
    }
    if (!drift_close(state.bandwidth_bps()[s], usage.bandwidth_bps[s],
                     drift_tolerance)) {
      add(report, ViolationKind::kCachedBandwidthDrift, Violation::kNone, s,
          state.bandwidth_bps()[s], usage.bandwidth_bps[s]);
    }
  }

  report.checks_performed += 3;
  const double fresh_objective =
      recompute_objective(problem, solution, usage);
  if (!drift_close(state.objective(), fresh_objective, drift_tolerance)) {
    add(report, ViolationKind::kCachedObjectiveDrift, Violation::kNone,
        Violation::kNone, state.objective(), fresh_objective);
  }

  const double cap = problem.cluster.bandwidth_bps_per_server;
  double fresh_overflow = 0.0;
  double fresh_max = 0.0;
  for (double load : usage.bandwidth_bps) {
    if (load > cap) fresh_overflow += (load - cap) / cap;
    fresh_max = std::max(fresh_max, load);
  }
  if (!drift_close(state.relative_bandwidth_overflow(), fresh_overflow,
                   drift_tolerance)) {
    add(report, ViolationKind::kCachedOverflowDrift, Violation::kNone,
        Violation::kNone, state.relative_bandwidth_overflow(),
        fresh_overflow);
  }
  if (!drift_close(state.max_bandwidth_bps(), fresh_max, drift_tolerance)) {
    add(report, ViolationKind::kCachedMaxLoadDrift, Violation::kNone,
        Violation::kNone, state.max_bandwidth_bps(), fresh_max);
  }
  return report;
}

}  // namespace vodrep
