// Scalable-encoding-bit-rate model (paper Section 4.3).
//
// In the general problem each video may be encoded at any rate from a
// discrete ladder; higher rates buy quality but consume more storage (Eq. 4)
// and more outgoing bandwidth per stream (Eq. 5), squeezing the replication
// degree.  A solution fixes, per video, one encoding bit rate (all replicas
// of a video share it, since they are copies of the same encoding) and a set
// of distinct host servers.
//
// Bandwidth accounting is the paper's conservative peak model: all
// lambda*T*p_i requests of the peak period are budgeted as if concurrent, so
// the expected outgoing load of server j is
//     l_j = sum over replicas (i on j) of  (lambda*T*p_i / r_i) * b_i.
// With this convention the saturation arrival rate of Section 5 (40 req/min
// = 3600 requests over 90 min at 4 Mb/s against 14.4 Gb/s) uses the cluster
// bandwidth exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/model.h"
#include "src/core/objective.h"

namespace vodrep {

/// The discrete set of admissible encoding bit rates, ascending.
struct BitrateLadder {
  std::vector<double> rates_bps;

  [[nodiscard]] std::size_t size() const { return rates_bps.size(); }
  [[nodiscard]] double lowest() const;
  [[nodiscard]] double highest() const;
  /// Throws unless non-empty, positive, strictly ascending.
  void validate() const;
};

/// Problem instance for the scalable-rate optimization.
struct ScalableProblem {
  VideoSet videos;
  ClusterSpec cluster;
  BitrateLadder ladder;
  /// Expected number of requests in the peak period (lambda * T); scales
  /// the normalized popularities into request counts for Eq. 5.
  double expected_peak_requests = 0.0;
  ObjectiveWeights weights;

  void validate() const;
};

/// A full configuration: per-video ladder index + per-video host servers.
struct ScalableSolution {
  std::vector<std::size_t> bitrate_index;            ///< into ladder.rates_bps
  std::vector<std::vector<std::size_t>> placement;   ///< distinct servers per video

  [[nodiscard]] std::size_t num_videos() const { return bitrate_index.size(); }
  /// Per-video replica counts.
  [[nodiscard]] std::vector<std::size_t> replicas() const;
  /// Per-video encoding bit rates in b/s.
  [[nodiscard]] std::vector<double> bitrates(const BitrateLadder& ladder) const;
};

/// Per-server resource usage of a solution.
struct ServerUsage {
  std::vector<double> storage_bytes;   ///< Eq. 4 left-hand side per server
  std::vector<double> bandwidth_bps;   ///< Eq. 5 left-hand side per server
};

[[nodiscard]] ServerUsage compute_usage(const ScalableProblem& problem,
                                        const ScalableSolution& solution);

/// True when every server satisfies Eqs. 4 and 5 and every video has between
/// 1 and N distinct hosts (Eqs. 6 and 7).
[[nodiscard]] bool is_feasible(const ScalableProblem& problem,
                               const ScalableSolution& solution);

/// Eq. 1 objective of a solution (higher is better).  The load vector fed to
/// the imbalance term is the per-server bandwidth usage.
[[nodiscard]] double solution_objective(const ScalableProblem& problem,
                                        const ScalableSolution& solution);

/// The paper's initial solution: every video at the lowest ladder rate, one
/// replica each, dealt round-robin over the servers.  Throws InfeasibleError
/// if even this does not fit storage.
[[nodiscard]] ScalableSolution lowest_rate_round_robin(
    const ScalableProblem& problem);

}  // namespace vodrep
