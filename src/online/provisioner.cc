#include "src/online/provisioner.h"

#include <algorithm>
#include <numeric>

#include "src/util/error.h"

namespace vodrep {

namespace {

/// Ids sorted by popularity (non-increasing, ties by id) plus the
/// normalized rank-space vector.
struct RankView {
  std::vector<std::size_t> id_of_rank;
  std::vector<double> ranked;
};

RankView rank_view(const std::vector<double>& popularity_by_id) {
  const std::size_t m = popularity_by_id.size();
  require(m >= 1, "provision_by_id: empty popularity vector");
  double sum = 0.0;
  for (double p : popularity_by_id) {
    require(p > 0.0, "provision_by_id: popularities must be positive");
    sum += p;
  }
  RankView view;
  view.id_of_rank.resize(m);
  std::iota(view.id_of_rank.begin(), view.id_of_rank.end(), 0);
  std::stable_sort(view.id_of_rank.begin(), view.id_of_rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return popularity_by_id[a] > popularity_by_id[b];
                   });
  view.ranked.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    view.ranked[r] = popularity_by_id[view.id_of_rank[r]] / sum;
  }
  return view;
}

}  // namespace

ReplicationPlan replicate_by_id(const std::vector<double>& popularity_by_id,
                                const ReplicationPolicy& replication,
                                std::size_t num_servers, std::size_t budget) {
  const RankView view = rank_view(popularity_by_id);
  const ReplicationPlan ranked_plan =
      replication.replicate(view.ranked, num_servers, budget);
  ReplicationPlan plan;
  plan.replicas.resize(popularity_by_id.size());
  for (std::size_t r = 0; r < plan.replicas.size(); ++r) {
    plan.replicas[view.id_of_rank[r]] = ranked_plan.replicas[r];
  }
  return plan;
}

IdProvisioningResult provision_by_id(
    const std::vector<double>& popularity_by_id,
    const ReplicationPolicy& replication, const PlacementPolicy& placement,
    std::size_t num_servers, std::size_t budget,
    std::size_t capacity_per_server) {
  const RankView view = rank_view(popularity_by_id);
  const std::size_t m = popularity_by_id.size();

  const ReplicationPlan ranked_plan =
      replication.replicate(view.ranked, num_servers, budget);
  const Layout ranked_layout = placement.place(ranked_plan, view.ranked,
                                               num_servers,
                                               capacity_per_server);

  IdProvisioningResult result;
  result.plan.replicas.resize(m);
  HostLists hosts_by_id(m);
  for (std::size_t r = 0; r < m; ++r) {
    result.plan.replicas[view.id_of_rank[r]] = ranked_plan.replicas[r];
    const auto hosts = ranked_layout.hosts(r);
    hosts_by_id[view.id_of_rank[r]].assign(hosts.begin(), hosts.end());
  }
  result.layout = Layout(hosts_by_id);
  return result;
}

}  // namespace vodrep
