// Id-space provisioning: run the rank-order replication/placement
// algorithms against a popularity vector indexed by video *id*.
//
// The core algorithms require a normalized non-increasing popularity vector
// (rank order).  In a running system popularities arrive keyed by video id
// in arbitrary order; this wrapper sorts ids by estimated popularity, runs
// the policies in rank space, and maps the plan and layout back to id
// space, so the rest of the system (dispatcher, traces) keeps addressing
// videos by stable ids.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/layout.h"
#include "src/core/placement.h"
#include "src/core/replication.h"

namespace vodrep {

struct IdProvisioningResult {
  ReplicationPlan plan;  ///< replicas per video id
  Layout layout;         ///< host list per video id
};

/// Sorts `popularity_by_id` (any positive weights; normalized internally),
/// runs `replication` + `placement` in rank space, and returns the result
/// re-indexed by video id.  Ties break toward the lower id so the mapping
/// is deterministic.
[[nodiscard]] IdProvisioningResult provision_by_id(
    const std::vector<double>& popularity_by_id,
    const ReplicationPolicy& replication, const PlacementPolicy& placement,
    std::size_t num_servers, std::size_t budget,
    std::size_t capacity_per_server);

/// The replication half of provision_by_id: returns only the per-id replica
/// counts.  Used by callers that pair the plan with a migration-aware
/// placement (see incremental_placement.h) instead of a from-scratch one.
[[nodiscard]] ReplicationPlan replicate_by_id(
    const std::vector<double>& popularity_by_id,
    const ReplicationPolicy& replication, std::size_t num_servers,
    std::size_t budget);

}  // namespace vodrep
