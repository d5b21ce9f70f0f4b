#include "src/core/layout.h"

#include "src/audit/audit.h"
#include "src/util/error.h"

namespace vodrep {

std::vector<std::size_t> Layout::replicas_per_server(
    std::size_t num_servers) const {
  std::vector<std::size_t> counts(num_servers, 0);
  for (const auto& servers : assignment) {
    for (std::size_t s : servers) {
      require(s < num_servers, "Layout: server index out of range");
      ++counts[s];
    }
  }
  return counts;
}

std::vector<double> Layout::expected_loads(
    const std::vector<double>& popularity, std::size_t num_servers) const {
  require(popularity.size() == assignment.size(),
          "Layout::expected_loads: popularity size mismatch");
  std::vector<double> loads(num_servers, 0.0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto& servers = assignment[i];
    require(!servers.empty(), "Layout::expected_loads: video has no replica");
    const double w = popularity[i] / static_cast<double>(servers.size());
    for (std::size_t s : servers) {
      require(s < num_servers, "Layout::expected_loads: server out of range");
      loads[s] += w;
    }
  }
  return loads;
}

ReplicationPlan Layout::implied_plan() const {
  ReplicationPlan plan;
  plan.replicas.reserve(assignment.size());
  for (const auto& servers : assignment) plan.replicas.push_back(servers.size());
  return plan;
}

void Layout::validate(const ReplicationPlan& plan, std::size_t num_servers,
                      std::size_t capacity_per_server) const {
  LayoutAuditor::Limits limits;
  limits.num_servers = num_servers;
  limits.capacity_per_server = capacity_per_server;
  const AuditReport report = LayoutAuditor(limits).audit(*this, &plan);
  require(report.ok(),
          [&] { return "Layout::validate: " + report.summary(); });
}

void Layout::validate(const ReplicationPlan& plan, std::size_t num_servers,
                      std::size_t capacity_per_server,
                      const std::vector<double>& popularity,
                      double bandwidth_bps_per_server,
                      double expected_peak_requests,
                      double bitrate_bps) const {
  LayoutAuditor::Limits limits;
  limits.num_servers = num_servers;
  limits.capacity_per_server = capacity_per_server;
  limits.bandwidth_bps_per_server = bandwidth_bps_per_server;
  limits.expected_peak_requests = expected_peak_requests;
  limits.bitrate_bps = bitrate_bps;
  const AuditReport report =
      LayoutAuditor(limits).audit(*this, &plan, &popularity);
  require(report.ok(),
          [&] { return "Layout::validate: " + report.summary(); });
}

}  // namespace vodrep
