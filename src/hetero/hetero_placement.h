// Bandwidth-weighted placement for heterogeneous clusters.
//
// Smallest-load-first's one-replica-per-server-per-round rule equalizes
// replica *counts*, which on a mixed fleet equalizes absolute loads and
// overdrives the slow servers.  The heterogeneous generalization drops the
// round structure and greedily places the heaviest remaining replica on the
// feasible server whose post-placement *utilization* (l_s + w) / B_s is
// smallest, so loads converge to the bandwidth proportions.  On an equal
// fleet the rule degenerates to exactly the greedy best-fit placement.
//
// The naive alternative (balance absolute loads, ignoring B_j) is the
// ablation baseline of experiment E15 (src/exp/experiments.cc).
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/layout.h"
#include "src/core/replication.h"

namespace vodrep {

/// Places `plan` on a cluster with per-server `bandwidth_bps` and
/// per-server replica-slot capacities.  `popularity` is the rank-ordered
/// normalized popularity vector (as for the homogeneous policies).  Throws
/// InfeasibleError when the plan cannot fit.
[[nodiscard]] Layout weighted_greedy_place(
    const ReplicationPlan& plan, const std::vector<double>& popularity,
    const std::vector<double>& bandwidth_bps,
    const std::vector<std::size_t>& capacity_slots);

}  // namespace vodrep
