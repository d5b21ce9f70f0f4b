#include "src/core/layout.h"

#include <limits>

#include "src/audit/audit.h"
#include "src/util/error.h"

namespace vodrep {

Layout::Layout(const HostLists& host_lists) {
  offsets.resize(host_lists.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < host_lists.size(); ++i) {
    total += host_lists[i].size();
    offsets[i + 1] = total;
  }
  servers.reserve(static_cast<std::size_t>(total));
  for (const auto& hosts : host_lists) {
    for (const std::size_t s : hosts) {
      require(s <= std::numeric_limits<std::uint32_t>::max(),
              "Layout: server id does not fit in 32 bits");
      servers.push_back(static_cast<std::uint32_t>(s));
    }
  }
}

Layout Layout::with_slots(const ReplicationPlan& plan) {
  Layout layout;
  layout.offsets.resize(plan.replicas.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < plan.replicas.size(); ++i) {
    total += plan.replicas[i];
    layout.offsets[i + 1] = total;
  }
  layout.servers.resize(static_cast<std::size_t>(total));
  return layout;
}

HostLists Layout::host_lists() const {
  HostLists lists(num_videos());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const auto h = hosts(i);
    lists[i].assign(h.begin(), h.end());
  }
  return lists;
}

std::vector<std::size_t> Layout::replicas_per_server(
    std::size_t num_servers) const {
  std::vector<std::size_t> counts(num_servers, 0);
  for (const std::uint32_t s : servers) {
    require(s < num_servers, "Layout: server index out of range");
    ++counts[s];
  }
  return counts;
}

std::vector<double> Layout::expected_loads(
    const std::vector<double>& popularity, std::size_t num_servers) const {
  require(popularity.size() == num_videos(),
          "Layout::expected_loads: popularity size mismatch");
  std::vector<double> loads(num_servers, 0.0);
  for (std::size_t i = 0; i < num_videos(); ++i) {
    const auto h = hosts(i);
    require(!h.empty(), "Layout::expected_loads: video has no replica");
    const double w = popularity[i] / static_cast<double>(h.size());
    for (const std::uint32_t s : h) {
      require(s < num_servers, "Layout::expected_loads: server out of range");
      loads[s] += w;
    }
  }
  return loads;
}

ReplicationPlan Layout::implied_plan() const {
  ReplicationPlan plan;
  plan.replicas.resize(num_videos());
  for (std::size_t i = 0; i < plan.replicas.size(); ++i) {
    plan.replicas[i] = replicas(i);
  }
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
