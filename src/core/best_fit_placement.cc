#include "src/core/best_fit_placement.h"

#include <algorithm>
#include <limits>

#include "src/audit/audit.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

Layout BestFitPlacement::place(const ReplicationPlan& plan,
                               const std::vector<double>& popularity,
                               std::size_t num_servers,
                               std::size_t capacity_per_server) const {
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);
  const std::vector<double> weights = plan.weights(popularity);
  Layout layout = Layout::with_slots(plan);
  std::vector<double> loads(num_servers, 0.0);
  std::vector<std::size_t> stored(num_servers, 0);

  for (std::size_t video : videos_by_weight(weights)) {
    const auto slots = layout.servers.begin() +
                       static_cast<std::ptrdiff_t>(layout.offsets[video]);
    for (std::size_t k = 0; k < plan.replicas[video]; ++k) {
      std::size_t best = num_servers;
      double best_load = std::numeric_limits<double>::infinity();
      // The video's first k slots are the servers that already host it.
      const auto already = slots + static_cast<std::ptrdiff_t>(k);
      for (std::size_t s = 0; s < num_servers; ++s) {
        if (stored[s] >= capacity_per_server) continue;
        if (std::find(slots, already, s) != already) continue;
        if (loads[s] < best_load) {
          best_load = loads[s];
          best = s;
        }
      }
      if (best == num_servers) {
        throw InfeasibleError(
            "best-fit placement: no feasible server for a replica");
      }
      *already = static_cast<std::uint32_t>(best);
      loads[best] += weights[video];
      ++stored[best];
    }
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
