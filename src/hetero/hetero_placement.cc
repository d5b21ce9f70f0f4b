#include "src/hetero/hetero_placement.h"

#include <algorithm>
#include <limits>

#include "src/audit/audit.h"
#include "src/core/placement.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

Layout weighted_greedy_place(const ReplicationPlan& plan,
                             const std::vector<double>& popularity,
                             const std::vector<double>& bandwidth_bps,
                             const std::vector<std::size_t>& capacity_slots) {
  const std::size_t n = bandwidth_bps.size();
  require(n >= 1, "weighted_greedy_place: need a server");
  require(capacity_slots.size() == n,
          "weighted_greedy_place: capacity/bandwidth size mismatch");
  for (double b : bandwidth_bps) {
    require(b > 0.0, "weighted_greedy_place: bad bandwidth");
  }
  check_placement_inputs(plan, popularity, n,
                         *std::max_element(capacity_slots.begin(),
                                           capacity_slots.end()));
  std::size_t total_slots = 0;
  for (std::size_t slots : capacity_slots) total_slots += slots;
  if (plan.total_replicas() > total_slots) {
    throw InfeasibleError("weighted_greedy_place: plan does not fit cluster");
  }

  const std::vector<double> weights = plan.weights(popularity);
  Layout layout = Layout::with_slots(plan);
  std::vector<double> loads(n, 0.0);
  std::vector<std::size_t> stored(n, 0);

  for (std::size_t video : videos_by_weight(weights)) {
    const auto slots = layout.servers.begin() +
                       static_cast<std::ptrdiff_t>(layout.offsets[video]);
    for (std::size_t k = 0; k < plan.replicas[video]; ++k) {
      // The video's first k slots are the servers that already host it.
      const auto hosting = slots + static_cast<std::ptrdiff_t>(k);
      std::size_t best = n;
      double best_utilization = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < n; ++s) {
        if (stored[s] >= capacity_slots[s]) continue;
        if (std::find(slots, hosting, s) != hosting) continue;
        const double utilization =
            (loads[s] + weights[video]) / bandwidth_bps[s];
        if (utilization < best_utilization) {
          best_utilization = utilization;
          best = s;
        }
      }
      if (best == n) {
        throw InfeasibleError(
            "weighted_greedy_place: no feasible server for a replica");
      }
      *hosting = static_cast<std::uint32_t>(best);
      loads[best] += weights[video];
      ++stored[best];
    }
  }
#if VODREP_CONTRACTS_ENABLED
  {
    // Structure + plan realization via the shared auditor (the fleet-wide
    // slot maximum stands in for Eq. 4); the true per-server slot limits are
    // checked directly below.
    LayoutAuditor::Limits limits;
    limits.num_servers = n;
    limits.capacity_per_server = *std::max_element(capacity_slots.begin(),
                                                   capacity_slots.end());
    const AuditReport report =
        LayoutAuditor(limits).audit(layout, &plan, &popularity);
    VODREP_DCHECK(report.ok(), report.summary());
    for (std::size_t s = 0; s < n; ++s) {
      VODREP_DCHECK_LE(stored[s], capacity_slots[s],
                       "weighted_greedy_place: server over its slot limit");
    }
  }
#endif
  return layout;
}

}  // namespace vodrep
