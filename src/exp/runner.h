// Replicated simulation runs: one (layout, arrival-rate) cell of a paper
// figure, averaged over R independent workload realizations.
//
// The provisioning pipeline (replication + placement) is deterministic, so
// it runs once per cell; only the request trace is re-randomized per run,
// with seeds derived as base_seed ^ run_index so results are independent of
// thread count and ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/exp/scenario.h"
#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace vodrep {

/// Aggregated metrics of R runs of one cell.
struct CellStats {
  OnlineStats rejection_rate;       ///< fraction in [0, 1] per run
  OnlineStats mean_imbalance_eq2;   ///< time-weighted L (Eq. 2) per run
  OnlineStats mean_imbalance_cv;    ///< time-weighted L (Eq. 3) per run
  OnlineStats mean_imbalance_capacity;  ///< (max - mean) / B per run
  OnlineStats peak_imbalance_eq2;
  OnlineStats redirected_fraction;  ///< redirected / total per run
  OnlineStats batched_fraction;     ///< batched / total per run
  OnlineStats mean_utilization;
  /// Load timeline of run 0 (one representative trajectory per cell; empty
  /// unless RunnerOptions::timeline_interval_sec > 0).
  std::vector<obs::TimeSample> timeline;
};

struct RunnerOptions {
  std::size_t runs = 20;
  std::uint64_t base_seed = 0x5eed5eed5eedULL;
  /// When non-empty, the global metrics registry is dumped as JSON to this
  /// path after the cell's runs complete (metrics must be enabled via
  /// obs::set_metrics_enabled for the engines to fold anything into it).
  std::string metrics_out;
  /// > 0 attaches a TimeseriesCollector to run 0 of the cell and captures
  /// its samples into CellStats::timeline.
  double timeline_interval_sec = 0.0;
  std::size_t timeline_max_samples = 512;
  /// When non-empty (and timeline_interval_sec > 0), run 0's timeline is
  /// also written to this path as columnar JSON.
  std::string timeline_out;
};

/// Simulates `runs` independent traces of `spec` against `layout` and
/// aggregates the metrics.  Uses `pool` when non-null.
[[nodiscard]] CellStats run_cell(const Layout& layout, const SimConfig& config,
                                 const TraceSpec& spec,
                                 const RunnerOptions& options,
                                 ThreadPool* pool = nullptr);

}  // namespace vodrep
