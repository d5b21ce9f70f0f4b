// Smallest-load-first placement (paper Algorithm 1, Section 4.2).
//
// Replica groups are sorted by per-replica communication weight in
// non-increasing order.  Placement proceeds in rounds; each round takes the
// N heaviest unplaced replicas and assigns them heaviest-first, each to the
// least-loaded server that (a) has not yet received a replica this round,
// (b) does not already host the replica's video (Eq. 6), and (c) has storage
// left (Eq. 4); ties go to the lowest server index.  When the least-loaded
// server already hosts the video the replica takes the next feasible one
// (the paper's example sends v2^3 to "the server with the second smallest
// load").  Since r_i <= N and R <= N * C, storage never runs out before the
// last round and no replica is ever left without a feasible server, so
// nothing is deferred to a later round.
//
// Cost: per round, one (load, index) sort of the servers, a stable radix sort
// on the loads' bits that runs only the D <= 8 byte digits on which the loads
// differ; then per replica a walk that skips at most the video's earlier
// holders.  O(C D (N + 256) + R r) for C rounds and r mean replicas per
// video, not a scan of all N servers per replica (DESIGN.md §1, item 5).
//
// Theorem 4.2: the resulting absolute load spread max_j l_j - min_j l_j is
// bounded by max_i w_i - min_i w_i; Theorem 4.3: this bound is
// non-increasing in the replication degree.
#pragma once

#include "src/core/placement.h"

namespace vodrep {

class SmallestLoadFirstPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "slf"; }
  [[nodiscard]] Layout place(const ReplicationPlan& plan,
                             const std::vector<double>& popularity,
                             std::size_t num_servers,
                             std::size_t capacity_per_server) const override;

  /// One placement decision, for Figure-3-style traces and tests.
  struct Step {
    std::size_t video = 0;
    std::size_t server = 0;
    double weight = 0.0;
    double server_load_after = 0.0;
    std::size_t round = 0;
  };

  /// Like place(), recording each placement decision in order.
  [[nodiscard]] Layout place_traced(const ReplicationPlan& plan,
                                    const std::vector<double>& popularity,
                                    std::size_t num_servers,
                                    std::size_t capacity_per_server,
                                    std::vector<Step>* steps) const;
};

}  // namespace vodrep
