// The simulation front door: simulate(policy, trace, options) replays a
// trace through any StoragePolicy.  At one shard (the default) it is a
// plain SimEngine::run of the caller's policy.  At S > 1 it asks the policy
// for its partition (StoragePolicy::shard), replays the S routed
// sub-traces on independent SimEngines, optionally in parallel on a
// ThreadPool, and merges the per-shard state into one SimResult that is
// invariant in S.
//
// Invariance argument, by result field:
//
//   * Counters (rejected, per-reason breakdown, redirected/proxied/batched/
//     disrupted, served_per_server) — every admission decision reads only
//     the owning shard's server state, so each counter is an exact sum (or,
//     for per-server vectors, the owning shard's entry) of per-shard values.
//     The differential tier asserts these with EXPECT_EQ.
//   * Per-server utilizations and the timeline max — each server's busy
//     sequence is identical to the monolithic replay, so these are
//     bit-exact per server; only quantities *summed across servers* of
//     different shards (means, Eq. 2/3 integrals) differ by float
//     associativity, within 1e-7.
//   * Eq. 2/3 time-weighted means and peak — nonlinear in the per-server
//     loads (they need the instantaneous global max and mean), so they
//     cannot be summed after the fact.  Each shard engine logs its running
//     (Σu, Σu², max) accumulator state as piecewise-constant LoadSegments
//     (SimEngine::attach_segment_log); at every merge-epoch boundary (fixed
//     at horizon·k/8, k = 1..7) the runner sweeps the S segment streams
//     chronologically and folds the global spans through the engine's own
//     LoadIntegrals::add_span.  Epoch boundaries exist only to bound
//     segment-log memory — they do not change any value.
//   * Timeline / event log — per-shard collectors and logs on the caller's
//     configuration are merged once at the end of the run
//     (obs::TimeseriesCollector::merge_shards; the event-log merge walks
//     the plan's global request order with per-shard cursors, so kept and
//     dropped records match the monolithic log exactly).
//
// With num_shards == 1 simulate() bypasses the plan/merge machinery
// entirely and calls SimEngine::run — bit-identical to the monolithic path,
// metrics export included (asserted by tests/sim_differential_test.cc and
// tests/sim_shard_invariance_test.cc).
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/layout.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/sim/prefix_cache.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace.h"

namespace vodrep {

struct SimOptions {
  /// Number of shard engines; 1 = the monolithic SimEngine::run path.
  std::size_t num_shards = 1;
  /// Pool to run shard epochs on; null (or a single-thread pool) replays
  /// the shards inline on the calling thread.  Results are identical either
  /// way — the pool only changes wall-clock time.
  ThreadPool* pool = nullptr;
  /// Optional, borrowed load timeline and per-request event log (see
  /// SimEngine::attach_timeline).  At one shard the engine records into
  /// them directly; at S > 1 they must be freshly constructed, because the
  /// merge fills them once at the end of the run.
  obs::TimeseriesCollector* timeline = nullptr;
  obs::EventLog* event_log = nullptr;
};

/// Kept only for benchmark/vodrep_benchmark.cc; use SimOptions.
using ShardedSimOptions = SimOptions;

/// Chronologically sweeps one merge epoch of per-shard LoadSegment streams
/// (each covering (epoch start, epoch end] contiguously, as
/// SimEngine::integrate_to emits them) and folds every global span — the
/// sum of the shards' sums and the max of their maxes — into `into` with
/// LoadIntegrals::add_span, the engine's own integrand.  Exposed for the
/// metrics-merge property tests (tests/arrival_batching_test.cc).
void merge_load_segments(const std::vector<std::vector<LoadSegment>>& logs,
                         double epoch_start, std::size_t num_servers,
                         LoadIntegrals& into);

/// Replays `trace` through `policy` on an engine built from
/// policy.config().  At one shard the caller's policy is run in place; at
/// more, the policy is only asked for its partition (StoragePolicy::shard)
/// and the per-shard policies replay.  Configurations that cannot shard
/// (e.g. RedirectMode::kBackboneProxy) throw a named InvalidArgumentError
/// at S > 1.  Deterministic: the trace fixes all randomness, and the result
/// is invariant in the shard count and the pool.
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

/// Kept only for benchmark/vodrep_benchmark.cc; forwards to simulate() with
/// a ReplicatedPolicy.
[[nodiscard]] SimResult simulate_sharded(
    const Layout& layout, const SimConfig& config, const RequestTrace& trace,
    const SimOptions& options,
    obs::TimeseriesCollector* timeline = nullptr,
    obs::EventLog* event_log = nullptr);

/// Kept only for benchmark/vodrep_benchmark.cc; forwards to simulate() with
/// a ReplicatedPolicy behind the edge tier `cache_options` configures.
[[nodiscard]] SimResult simulate_sharded_prefix_cache(
    const Layout& layout, const SimConfig& config,
    const PrefixCacheOptions& cache_options, const RequestTrace& trace,
    const SimOptions& options,
    obs::TimeseriesCollector* timeline = nullptr,
    obs::EventLog* event_log = nullptr);

}  // namespace vodrep
