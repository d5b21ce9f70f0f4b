// The paper's Section 5 simulation setting, parameterized.
//
// Defaults reproduce the reconstructed setup documented in DESIGN.md:
// 8 homogeneous servers with 1.8 Gb/s outgoing links, 300 videos of 90
// minutes encoded at a fixed 4 Mb/s (2.7 GB per replica), Zipf-like
// popularity, Poisson arrivals over a 90-minute peak period, and a cluster
// saturation arrival rate of 40 requests/minute.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/model.h"
#include "src/sim/engine.h"
#include "src/workload/trace.h"

namespace vodrep {

struct PaperScenario {
  std::size_t num_servers = 8;
  std::size_t num_videos = 300;
  double server_bandwidth_gbps = 1.8;
  double bitrate_mbps = 4.0;
  double duration_minutes = 90.0;
  double theta = 0.75;             ///< Zipf skew
  double replication_degree = 1.2; ///< cluster replicas per video

  /// The fixed-rate problem instance for this scenario (storage sized for
  /// the replication degree; see make_paper_problem).
  [[nodiscard]] FixedRateProblem problem() const;

  /// Cluster-wide replica budget: round(degree * M).
  [[nodiscard]] std::size_t replica_budget() const;

  /// Trace generation parameters at `arrival_rate_per_min` requests/minute.
  [[nodiscard]] TraceSpec trace_spec(double arrival_rate_per_min) const;

  /// Simulator configuration (no redirection by default).
  [[nodiscard]] SimConfig sim_config() const;

  /// Arrival rate (req/min) that exactly matches the cluster's outgoing
  /// bandwidth over the peak period: N*B / b / T.  40/min at the defaults.
  [[nodiscard]] double saturation_rate_per_min() const;
};

/// The arrival-rate sweep the paper's figures use on their x-axes:
/// `points` evenly spaced rates from `fraction_lo` to `fraction_hi` of the
/// saturation rate (defaults cover 10%..120%, i.e. 4..48 req/min).
[[nodiscard]] std::vector<double> arrival_rate_sweep(
    const PaperScenario& scenario, std::size_t points = 12,
    double fraction_lo = 0.1, double fraction_hi = 1.2);

}  // namespace vodrep
