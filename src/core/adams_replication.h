// Bounded Adams monotone divisor replication (paper Section 4.1.1).
//
// Optimal for the fixed-bit-rate replication objective of Eq. 8: minimize
// the largest per-replica communication weight max_i p_i / r_i, subject to
// the cluster-wide budget and the per-video cap r_i <= N (Eq. 7).
//
// The algorithm is the Adams divisor method from apportionment theory with
// the house size equal to the replica budget and the seat cap N: start from
// one replica per video, then repeatedly grant one more replica to the video
// whose replicas currently carry the greatest weight, ties to the smaller
// index, skipping videos that already own N replicas.  The paper states it
// as that heap greedy, O(M + N*C*log M).
//
// The greedy grants video i's (j+1)-th replica at the key fl(p_i / j),
// j = 1..N-1.  Correctly rounded division is monotone, so each video's keys
// never rise with j, and the greedy pops all M*(N-1) keys in one order: key
// descending, then video ascending, then j ascending.  Its plan is therefore
// the K = min(budget - M, M*(N-1)) largest keys in that order, and
// replicate() selects them without a heap: counting passes bracket the K-th
// key (each probe counts every video's keys above it, O(1) per video; a
// power-law fit through the last two probes places the next one, and a
// probe that leaves the bracket is replaced by a bisection), then every key
// above the bracket is granted, and the rest come from the keys inside it,
// tied keys in index order.  The first probe usually lands below the K-th
// key, and later probes visit only the videos with a key above it: at
// catalog-1m's M = 1M, N = 256 that is one pass over all M and four over
// about 60,000 videos, against 200,000 pops of a 1M-entry heap.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/replication.h"

namespace vodrep {

/// One granting step of the Adams iteration, recorded for Figure-1-style
/// traces and for the optimality tests.
struct AdamsStep {
  std::size_t video = 0;        ///< video that received the new replica
  std::size_t new_replicas = 0; ///< its replica count after the grant
  double weight_before = 0.0;   ///< p_i / (new_replicas - 1), the max at pick time
  double weight_after = 0.0;    ///< p_i / new_replicas
};

class AdamsReplication final : public ReplicationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "adams"; }
  [[nodiscard]] ReplicationPlan replicate(const std::vector<double>& popularity,
                                          std::size_t num_servers,
                                          std::size_t budget) const override;

  /// Like replicate(), but also records every granting step in the heap
  /// greedy's order (the grants sorted by key, video and j).
  [[nodiscard]] ReplicationPlan replicate_traced(
      const std::vector<double>& popularity, std::size_t num_servers,
      std::size_t budget, std::vector<AdamsStep>* steps) const;
};

}  // namespace vodrep
