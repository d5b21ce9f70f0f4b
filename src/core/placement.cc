#include "src/core/placement.h"

#include <algorithm>
#include <numeric>

#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {

void check_placement_inputs(const ReplicationPlan& plan,
                            const std::vector<double>& popularity,
                            std::size_t num_servers,
                            std::size_t capacity_per_server) {
  require(num_servers >= 1, "placement: need at least one server");
  require(plan.replicas.size() == popularity.size(),
          "placement: plan/popularity size mismatch");
  require(is_popularity_vector(popularity),
          "placement: popularity must be normalized and non-increasing");
  for (std::size_t r : plan.replicas) {
    require(r >= 1, "placement: every video needs at least one replica");
    require(r <= num_servers, "placement: r_i exceeds server count (Eq. 7)");
  }
  if (plan.total_replicas() > num_servers * capacity_per_server) {
    throw InfeasibleError("placement: plan does not fit cluster storage");
  }
}

std::vector<std::size_t> videos_by_weight(const std::vector<double>& weights) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Each maximal non-increasing run of weights, taken in index order, is
  // already sorted; `starts` holds where each run begins, then the end.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (i == 0 || weights[i] > weights[i - 1]) starts.push_back(i);
  }
  starts.push_back(weights.size());
  const auto at = [&order](std::size_t k) {
    return order.begin() + static_cast<std::ptrdiff_t>(k);
  };
  const auto heavier = [&weights](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  };
  // Merge neighbouring runs pairwise until one is left.  Neighbours cover
  // adjacent index ranges and inplace_merge is stable, so equal weights
  // keep index order; a run without a partner stays where it is.
  while (starts.size() > 2) {
    std::size_t kept = 0;
    for (std::size_t r = 0; r + 1 < starts.size(); r += 2) {
      if (r + 2 < starts.size()) {
        std::inplace_merge(at(starts[r]), at(starts[r + 1]), at(starts[r + 2]),
                           heavier);
      }
      starts[kept++] = starts[r];
    }
    starts[kept++] = starts.back();
    starts.resize(kept);
  }
  return order;
}

}  // namespace vodrep
