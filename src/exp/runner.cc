#include "src/exp/runner.h"

#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"

namespace vodrep {

CellStats run_cell(const Layout& layout, const SimConfig& config,
                   const TraceSpec& spec, const RunnerOptions& options,
                   ThreadPool* pool) {
  VODREP_TRACE_SCOPE("exp.run_cell");
  require(options.runs >= 1, "run_cell: need at least one run");
  std::vector<SimResult> results(options.runs);

  // One representative trajectory per cell: run 0 (whose seed is fixed by
  // base_seed, independent of thread count) carries the collector.
  std::unique_ptr<obs::TimeseriesCollector> timeline;
  if (options.timeline_interval_sec > 0.0) {
    obs::TimeseriesConfig ts;
    ts.interval_sec = options.timeline_interval_sec;
    ts.max_samples = options.timeline_max_samples;
    timeline =
        std::make_unique<obs::TimeseriesCollector>(ts, config.num_servers);
  }

  auto one_run = [&](std::size_t run) {
    Rng rng(options.base_seed ^ (0x9e3779b97f4a7c15ULL * (run + 1)));
    const RequestTrace trace = generate_trace(rng, spec);
    SimOptions sim_options;
    if (run == 0) sim_options.timeline = timeline.get();
    results[run] =
        simulate(ReplicatedPolicy(layout, config), trace, sim_options);
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
    stats.redirected_fraction.add(
        r.total_requests == 0
            ? 0.0
            : static_cast<double>(r.redirected) /
                  static_cast<double>(r.total_requests));
    stats.batched_fraction.add(
        r.total_requests == 0
            ? 0.0
            : static_cast<double>(r.batched) /
                  static_cast<double>(r.total_requests));
    stats.mean_utilization.add(r.mean_utilization());
  }
  if (timeline != nullptr) {
    stats.timeline = timeline->samples();
    if (!options.timeline_out.empty()) {
      std::ofstream out(options.timeline_out);
      require(out.good(), [&] {
        return "run_cell: cannot open timeline output file " +
               options.timeline_out;
      });
      timeline->to_json().write(out);
      out << '\n';
      out.flush();
      require(out.good(), [&] {
        return "run_cell: cannot write timeline output file " +
               options.timeline_out;
      });
    }
  }
  if (!options.metrics_out.empty()) {
    std::ofstream out(options.metrics_out);
    require(out.good(), [&] {
      return "run_cell: cannot open metrics output file " + options.metrics_out;
    });
    obs::metrics().write_json(out);
  }
  return stats;
}

}  // namespace vodrep
