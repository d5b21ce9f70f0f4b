#include "src/exp/runner.h"

#include <vector>

#include "src/obs/trace.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"

namespace vodrep {
namespace {

double share(std::size_t count, std::size_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(count) / static_cast<double>(total);
}

}  // namespace

CellStats run_cell(const Replay& replay, const TraceSource& traces,
                   const RunnerOptions& options, ThreadPool* pool) {
  VODREP_TRACE_SCOPE("exp.run_cell");
  require(options.runs >= 1, "run_cell: need at least one run");
  std::vector<SimResult> results(options.runs);

  auto one_run = [&](std::size_t run) {
    Rng rng(options.base_seed ^ (0x9e3779b97f4a7c15ULL * (run + 1)));
    results[run] = replay(traces(rng));
  };

  if (pool != nullptr) {
    pool->parallel_for(options.runs, one_run);
  } else {
    for (std::size_t run = 0; run < options.runs; ++run) one_run(run);
  }

  CellStats stats;
  for (const SimResult& r : results) {
    stats.rejection_rate.add(r.rejection_rate());
    stats.mean_imbalance_eq2.add(r.mean_imbalance_eq2);
    stats.mean_imbalance_cv.add(r.mean_imbalance_cv);
    stats.mean_imbalance_capacity.add(r.mean_imbalance_capacity);
    stats.peak_imbalance_eq2.add(r.peak_imbalance_eq2);
    stats.redirected_fraction.add(share(r.redirected, r.total_requests));
    stats.batched_fraction.add(share(r.batched, r.total_requests));
    stats.disrupted_fraction.add(share(r.disrupted, r.total_requests));
    stats.cache_hit_ratio.add(r.cache_hit_ratio());
    stats.mean_utilization.add(r.mean_utilization());
  }
  return stats;
}

CellStats run_cell(const Replay& replay, const TraceSpec& spec,
                   const RunnerOptions& options, ThreadPool* pool) {
  return run_cell(
      replay, [&spec](Rng& rng) { return generate_trace(rng, spec); },
      options, pool);
}

CellStats run_cell(const Layout& layout, const SimConfig& config,
                   const TraceSpec& spec, const RunnerOptions& options,
                   ThreadPool* pool) {
  return run_cell(
      [&](const RequestTrace& trace) {
        return simulate(ReplicatedPolicy(layout, config), trace);
      },
      spec, options, pool);
}

}  // namespace vodrep
