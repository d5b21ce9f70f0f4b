#include "src/core/slf_placement.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "src/audit/audit.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {
namespace {

/// Orders the servers by (load, index) with a stable LSD radix sort on the
/// loads' bit patterns, 8 bits per digit.  A finite, non-negative double
/// orders like its bits read as an unsigned integer, and equal doubles other
/// than +0.0 and -0.0 have equal bits.  The servers enter in index order and
/// every pass is stable, so equal loads stay in index order.  The four
/// buffers are sized once, for every round of one placement.
class ServerOrder {
 public:
  explicit ServerOrder(std::size_t num_servers)
      : keys_(num_servers),
        spare_keys_(num_servers),
        order_(num_servers),
        spare_order_(num_servers) {}

  /// Sorts the servers by (loads[s], s).  Each load must be a finite,
  /// non-negative sum starting at +0.0, so never -0.0.
  void sort(const std::vector<double>& loads) {
    // A digit on which every key agrees leaves the order as it is; one
    // AND/OR pass finds them.
    std::uint64_t all_set = ~std::uint64_t{0};
    std::uint64_t any_set = 0;
    for (std::size_t s = 0; s < loads.size(); ++s) {
      VODREP_DCHECK(std::isfinite(loads[s]) && !std::signbit(loads[s]),
                    "slf placement: a server load is not a finite, "
                    "non-negative number");
      const auto key = std::bit_cast<std::uint64_t>(loads[s]);
      keys_[s] = key;
      order_[s] = static_cast<std::uint32_t>(s);
      all_set &= key;
      any_set |= key;
    }
    const std::uint64_t varying = all_set ^ any_set;
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xFF) == 0) continue;
      std::array<std::uint32_t, 256> start{};
      for (const std::uint64_t key : keys_) ++start[(key >> shift) & 0xFF];
      std::exclusive_scan(start.begin(), start.end(), start.begin(),
                          std::uint32_t{0});
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        const std::uint32_t to = start[(keys_[i] >> shift) & 0xFF]++;
        spare_keys_[to] = keys_[i];
        spare_order_[to] = order_[i];
      }
      keys_.swap(spare_keys_);
      order_.swap(spare_order_);
    }
  }

  /// The server at position `pos` of the last sort.
  std::size_t operator[](std::size_t pos) const { return order_[pos]; }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> spare_keys_;
  // Server ids are 32-bit, as in Layout::servers.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> spare_order_;
};

}  // namespace

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
  ServerOrder order(num_servers);
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
        order.sort(loads);
        for (std::size_t p = 0; p < head; ++p) next_open[p] = p + 1;
        next_open[head] = 0;
      }
      // At most the k servers holding this video's earlier replicas are
      // skipped.
      std::size_t prev = head;
      std::size_t pos = next_open[head];
      while (pos != head && hosting[order[pos]] == video) {
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
      const std::size_t best = order[pos];
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
