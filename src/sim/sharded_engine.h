// The simulation front door: simulate(policy, trace, options) replays a
// trace through any StoragePolicy on one SimEngine, built from the policy's
// own SimConfig, exactly as the paper's §5 evaluation replays each trace on
// one sequential event loop.
//
// simulate() lives in its own translation unit, not in engine.cc: the
// hot-path benches compile engine.cc a second time for their hook-free
// baseline (src/obs/hooks.h), and that build must not define it twice.
#pragma once

#include <cstddef>

#include "src/core/layout.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/sim/prefix_cache.h"
#include "src/workload/trace.h"

namespace vodrep {

class ThreadPool;

struct SimOptions {
  /// Optional, borrowed load timeline and per-request event log (see
  /// SimEngine::attach_timeline).  A used one is appended to, so
  /// multi-epoch callers offset both and replay into them again.
  obs::TimeseriesCollector* timeline = nullptr;
  obs::EventLog* event_log = nullptr;
};

/// Replays `trace` through `policy` on one SimEngine built from
/// policy.config().  Deterministic: the trace fixes all randomness.
[[nodiscard]] SimResult simulate(StoragePolicy& policy,
                                 const RequestTrace& trace,
                                 const SimOptions& options = {});

/// Accepts a temporary, so `simulate(HybridPolicy(layout, config), trace)`
/// stays one line.
[[nodiscard]] inline SimResult simulate(StoragePolicy&& policy,
                                        const RequestTrace& trace,
                                        const SimOptions& options = {}) {
  return simulate(policy, trace, options);
}

// --- benchmark-only ---------------------------------------------------------
// benchmark/vodrep_benchmark.cc still names the interface of the routed
// shard replay that simulate() no longer has.  These forwards keep it
// compiling until that file moves to simulate(); use simulate() instead.

/// Both fields are accepted and ignored: every replay runs whole.
struct ShardedSimOptions {
  std::size_t num_shards = 1;
  ThreadPool* pool = nullptr;
};

/// simulate() with a ReplicatedPolicy; `options` is ignored.
[[nodiscard]] SimResult simulate_sharded(
    const Layout& layout, const SimConfig& config, const RequestTrace& trace,
    const ShardedSimOptions& options,
    obs::TimeseriesCollector* timeline = nullptr,
    obs::EventLog* event_log = nullptr);

/// simulate() with a ReplicatedPolicy behind the edge tier `cache_options`
/// configures; `options` is ignored.
[[nodiscard]] SimResult simulate_sharded_prefix_cache(
    const Layout& layout, const SimConfig& config,
    const PrefixCacheOptions& cache_options, const RequestTrace& trace,
    const ShardedSimOptions& options,
    obs::TimeseriesCollector* timeline = nullptr,
    obs::EventLog* event_log = nullptr);

}  // namespace vodrep
