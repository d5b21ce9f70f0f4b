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

#include "src/core/layout.h"
#include "src/exp/scenario.h"
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
};

struct RunnerOptions {
  std::size_t runs = 20;
  std::uint64_t base_seed = 0x5eed5eed5eedULL;
};

/// Simulates `runs` independent traces of `spec` against `layout` and
/// aggregates the metrics.  Uses `pool` when non-null.
[[nodiscard]] CellStats run_cell(const Layout& layout, const SimConfig& config,
                                 const TraceSpec& spec,
                                 const RunnerOptions& options,
                                 ThreadPool* pool = nullptr);

}  // namespace vodrep
