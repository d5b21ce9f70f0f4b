// Placement-policy interface (paper Section 4.2).
//
// Placement maps every replica of a plan onto a server, subject to the
// storage capacity (Eq. 4) and the one-replica-per-server-per-video rule
// (Eq. 6), minimizing the load-imbalance degree of the expected loads.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/core/replication.h"

namespace vodrep {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Places every replica of `plan`.  `popularity` supplies the per-replica
  /// weights w_i = p_i / r_i the policy balances; `capacity_per_server` is
  /// the storage capacity in replica slots.  Throws InfeasibleError when no
  /// feasible layout exists (e.g. total replicas exceed N * capacity).
  [[nodiscard]] virtual Layout place(const ReplicationPlan& plan,
                                     const std::vector<double>& popularity,
                                     std::size_t num_servers,
                                     std::size_t capacity_per_server) const = 0;
};

/// Validates common placement preconditions; shared by implementations.
void check_placement_inputs(const ReplicationPlan& plan,
                            const std::vector<double>& popularity,
                            std::size_t num_servers,
                            std::size_t capacity_per_server);

/// The replica-group ordering all placement algorithms start from: video
/// indices sorted by per-replica weight w_i = p_i / r_i (`weights`, as
/// ReplicationPlan::weights gives them), non-increasing, ties broken by
/// video index.  (The paper arranges "all replicas of each video in a
/// corresponding group" and sorts the groups by weight.)  The maximal
/// non-increasing runs of `weights` are merged in index order, so the cost
/// is O(M log k) for k runs (153 at catalog-1m's M = 1M) and O(M) when the
/// weights never rise.
[[nodiscard]] std::vector<std::size_t> videos_by_weight(
    const std::vector<double>& weights);

}  // namespace vodrep
