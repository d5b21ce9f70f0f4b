#include "src/sim/sharded_engine.h"

#include "src/sim/replicated_policy.h"

namespace vodrep {

SimResult simulate(StoragePolicy& policy, const RequestTrace& trace,
                   const SimOptions& options) {
  SimEngine engine(policy.config());
  engine.attach_timeline(options.timeline);
  engine.attach_event_log(options.event_log);
  return engine.run(policy, trace);
}

SimResult simulate_sharded(const Layout& layout, const SimConfig& config,
                           const RequestTrace& trace,
                           const ShardedSimOptions& /*options*/,
                           obs::TimeseriesCollector* timeline,
                           obs::EventLog* event_log) {
  return simulate(ReplicatedPolicy(layout, config), trace,
                  {timeline, event_log});
}

SimResult simulate_sharded_prefix_cache(const Layout& layout,
                                        const SimConfig& config,
                                        const PrefixCacheOptions& cache_options,
                                        const RequestTrace& trace,
                                        const ShardedSimOptions& /*options*/,
                                        obs::TimeseriesCollector* timeline,
                                        obs::EventLog* event_log) {
  return simulate(ReplicatedPolicy(layout, config, cache_options), trace,
                  {timeline, event_log});
}

}  // namespace vodrep
