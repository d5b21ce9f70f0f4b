#include "src/core/round_robin_placement.h"

#include "src/audit/audit.h"
#include "src/util/check.h"

namespace vodrep {

Layout RoundRobinPlacement::place(const ReplicationPlan& plan,
                                  const std::vector<double>& popularity,
                                  std::size_t num_servers,
                                  std::size_t capacity_per_server) const {
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);
  // Slots are in video order, so slot j simply goes to server j mod N.
  Layout layout = Layout::with_slots(plan);
  for (std::size_t slot = 0; slot < layout.servers.size(); ++slot) {
    layout.servers[slot] = static_cast<std::uint32_t>(slot % num_servers);
  }
#if VODREP_CONTRACTS_ENABLED
  {
    LayoutAuditor::Limits limits;
    limits.num_servers = num_servers;
    limits.capacity_per_server = capacity_per_server;
    const AuditReport report =
        LayoutAuditor(limits).audit(layout, &plan, &popularity);
    VODREP_DCHECK(report.ok(), report.summary());
  }
#endif
  return layout;
}

}  // namespace vodrep
