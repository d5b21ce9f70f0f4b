// Replicated simulation runs: one cell of an experiment table, averaged
// over R independent workload realizations.
//
// The provisioning pipeline (replication + placement) is deterministic, so
// a cell's layout is built once; only the request trace is re-randomized per
// run, with seeds derived from (base_seed, run index) so results are
// independent of thread count and ordering.  run_cell is the one seed loop
// of the experiment catalogue: every storage organization, configuration
// and trace generator reaches it through the Replay and TraceSource
// callables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/core/layout.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace.h"

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
  OnlineStats disrupted_fraction;   ///< disrupted / total per run
  OnlineStats cache_hit_ratio;      ///< edge-tier hits / lookups per run
  OnlineStats mean_utilization;
};

struct RunnerOptions {
  std::size_t runs = 20;
  std::uint64_t base_seed = 0x5eed5eed5eedULL;
};

/// Replays one trace.  Called concurrently from the pool's workers, so it
/// must only read shared state.
using Replay = std::function<SimResult(const RequestTrace&)>;
/// Draws one run's trace from that run's generator.
using TraceSource = std::function<RequestTrace(Rng&)>;

/// Replays `runs` independent traces of `traces` and aggregates the
/// metrics.  Run r draws from Rng(base_seed ^ (0x9e3779b97f4a7c15 * (r+1))).
/// Uses `pool` when non-null.
[[nodiscard]] CellStats run_cell(const Replay& replay,
                                 const TraceSource& traces,
                                 const RunnerOptions& options,
                                 ThreadPool* pool = nullptr);

/// run_cell on traces generated from `spec`.
[[nodiscard]] CellStats run_cell(const Replay& replay, const TraceSpec& spec,
                                 const RunnerOptions& options,
                                 ThreadPool* pool = nullptr);

/// run_cell of the replicated organization: `layout` under `config`.
[[nodiscard]] CellStats run_cell(const Layout& layout, const SimConfig& config,
                                 const TraceSpec& spec,
                                 const RunnerOptions& options,
                                 ThreadPool* pool = nullptr);

}  // namespace vodrep
