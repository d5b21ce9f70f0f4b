#include "src/core/slf_placement.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/audit/audit.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

Layout SmallestLoadFirstPlacement::place(
    const ReplicationPlan& plan, const std::vector<double>& popularity,
    std::size_t num_servers, std::size_t capacity_per_server) const {
  return place_traced(plan, popularity, num_servers, capacity_per_server,
                      nullptr);
}

Layout SmallestLoadFirstPlacement::place_traced(
    const ReplicationPlan& plan, const std::vector<double>& popularity,
    std::size_t num_servers, std::size_t capacity_per_server,
    std::vector<Step>* steps) const {
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);

  const std::vector<double> weights = plan.weights(popularity);
  Layout layout = Layout::with_slots(plan);

  // Storage needs no tracking: a round gives a server at most one replica,
  // so after the ceil(R / N) rounds it holds at most that many, and
  // check_placement_inputs ensures R <= N * C (Eq. 4).
  std::vector<double> loads(num_servers, 0.0);
  // hosting[s] is the last video placed on server s.  A video's replicas
  // are placed one after another, so while placing video v, hosting[s] == v
  // exactly when s already holds a replica of v (Eq. 6).
  std::vector<std::size_t> hosting(num_servers,
                                   std::numeric_limits<std::size_t>::max());

  // The servers sorted by (round-start load, index), and a circular list of
  // the positions not yet used this round; slot N is the list's head.
  std::vector<std::pair<double, std::size_t>> order(num_servers);
  std::vector<std::size_t> next_open(num_servers + 1);
  const std::size_t head = num_servers;

  // Steps 1-2 of Algorithm 1: all replicas, grouped by video, groups in
  // non-increasing weight order; each round takes the next N of them.
  std::size_t placed = 0;
  for (std::size_t video : videos_by_weight(weights)) {
    const std::size_t first_slot = layout.offsets[video];
    for (std::size_t k = 0; k < plan.replicas[video]; ++k, ++placed) {
      if (placed % num_servers == 0) {
        // A server's load changes only when it receives a replica, and then
        // it is out of the round.  So the servers still open keep their
        // round-start loads, and the first open entry of this order that
        // does not host the video is the least-loaded feasible server, ties
        // to the lowest index.
        for (std::size_t s = 0; s < num_servers; ++s) order[s] = {loads[s], s};
        std::sort(order.begin(), order.end());
        for (std::size_t p = 0; p < head; ++p) next_open[p] = p + 1;
        next_open[head] = 0;
      }
      // At most the k servers holding this video's earlier replicas are
      // skipped.
      std::size_t prev = head;
      std::size_t pos = next_open[head];
      while (pos != head && hosting[order[pos].second] == video) {
        prev = pos;
        pos = next_open[pos];
      }
      if (pos == head) {
        // Unreachable while r_i <= N (check_placement_inputs): a video spans
        // at most two rounds, its remainder first in the second, so an open
        // server without it always remains.  Hence the paper's deferral of a
        // blocked replica to the next round never triggers.
        throw InfeasibleError(
            "slf placement: no feasible server for the remaining replicas");
      }
      next_open[prev] = next_open[pos];
      const std::size_t best = order[pos].second;
      hosting[best] = video;
      loads[best] += weights[video];
      layout.servers[first_slot + k] = static_cast<std::uint32_t>(best);
      if (steps != nullptr) {
        steps->push_back(Step{video, best, weights[video], loads[best],
                              placed / num_servers});
      }
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
