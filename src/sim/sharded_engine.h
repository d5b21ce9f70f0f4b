// The simulation front door: simulate(policy, trace, options) replays a
// trace through any StoragePolicy.  One configuration shards; every other
// replays whole.
//
// The one shard rule.  Under RedirectMode::kNone the paper's dispatcher
// advances a video's round-robin counter on every request, before the
// batching join and the admission check, so each request's server is a
// function of the trace alone.  A ReplicatedPolicy with kNone and no live
// edge tier (a tier's prefix hits skip the dispatcher, and its eviction
// couples every video) therefore splits by server: a sequential pre-pass
// (plan_routed_replay) replays the round-robin counters, routes each
// request to the shard owning its picked holder (shard s owns the servers
// j with j % S == s), and records the pick for that shard's dispatcher to
// replay (Dispatcher::set_routed_picks).  The batching window is keyed by
// (video, picked holder), so the same shard owns it; rejection attribution
// reads other holders' failed flags only, and every shard applies the full
// failure schedule, so those flags are right in every shard.  The S shard
// engines replay the caller's trace through per-shard request indices,
// optionally in parallel on a ThreadPool, and the runner merges them into
// one SimResult.  The merge fills the caller's timeline and event log once
// at the end of the run, so it needs them freshly constructed.
//
// Every other policy, redirect mode, live tier, or already-used timeline
// or event log replays whole on one SimEngine at any shard count, exactly
// as at one shard.
//
// Invariance of the routed replay, by result field:
//
//   * Counters (rejected, per-reason breakdown, batched, disrupted,
//     served_per_server) — every admission decision reads only the owning
//     shard's server state, so each counter is an exact sum (or, for
//     per-server vectors, the owning shard's entry) of per-shard values.
//   * Per-server utilizations and the timeline max — each server's busy
//     sequence is identical to the whole replay, so these are bit-exact
//     per server; only quantities *summed across servers* of different
//     shards (means, Eq. 2/3 integrals) differ by float associativity,
//     within 1e-7.
//   * Eq. 2/3 time-weighted means and peak — nonlinear in the per-server
//     loads (they need the instantaneous global max and mean), so they
//     cannot be summed after the fact.  Each shard engine logs its running
//     (Σu, Σu², max) accumulator state as piecewise-constant LoadSegments
//     (SimEngine::attach_segment_log); at every merge-epoch boundary (fixed
//     at horizon·k/8, k = 1..7) the runner sweeps the S segment streams
//     chronologically and folds the global spans through the engine's own
//     LoadIntegrals::add_span.  Epoch boundaries exist only to bound
//     segment-log memory — they do not change any value.  The calling
//     thread sizes every segment log before each epoch, so the replay's
//     memory does not depend on which pool thread ran which shard.
//   * Timeline / event log — per-shard collectors and logs are merged into
//     the caller's once at the end of the run
//     (obs::TimeseriesCollector::merge_shards; the event-log merge walks
//     the global request order with per-shard cursors, so kept and dropped
//     records match the whole replay's log exactly).
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Shard engines for a routed replay (above); the plan uses at most one
  /// per server.  Every other replay runs whole at any value, and 1 always
  /// does.  A throughput hint: the result depends on it only through the
  /// routed replay's cross-shard float sums, within 1e-7.
  std::size_t num_shards = 1;
  /// Pool to run shard epochs on; null (or a single-thread pool) replays
  /// the shards inline on the calling thread.  Results are identical either
  /// way — the pool only changes wall-clock time.
  ThreadPool* pool = nullptr;
  /// Optional, borrowed load timeline and per-request event log (see
  /// SimEngine::attach_timeline).  A routed replay needs them freshly
  /// constructed (size 0 and zero time offset); a used one makes the
  /// replay run whole.
  obs::TimeseriesCollector* timeline = nullptr;
  obs::EventLog* event_log = nullptr;
};

/// Kept only for benchmark/vodrep_benchmark.cc; use SimOptions.
using ShardedSimOptions = SimOptions;

/// The routed replay's partition of a trace over num_shards() shards;
/// shard s owns the servers j with j % num_shards() == s.  requests[s]
/// lists, in increasing order, the indices into the trace of the requests
/// whose round-robin pick shard s owns, and picks[s][k] is the holder index
/// (into layout.hosts(video)) picked for request requests[s][k].
struct RoutedPlan {
  std::vector<std::vector<std::uint32_t>> requests;
  std::vector<std::vector<std::uint32_t>> picks;

  [[nodiscard]] std::size_t num_shards() const { return requests.size(); }
};

/// Replays the dispatcher's per-video round-robin advance over `trace` and
/// routes every request to the shard owning its picked holder, on
/// min(num_shards, num_servers) shards: a shard past the server count would
/// own no server.  O(requests); copies no request.
[[nodiscard]] RoutedPlan plan_routed_replay(const Layout& layout,
                                            std::size_t num_servers,
                                            const RequestTrace& trace,
                                            std::size_t num_shards);

/// Chronologically sweeps one merge epoch of per-shard LoadSegment streams
/// (each covering (epoch start, epoch end] contiguously, as
/// SimEngine::integrate_to emits them) and folds every global span — the
/// sum of the shards' sums and the max of their maxes — into `into` with
/// LoadIntegrals::add_span, the engine's own integrand.  Exposed for the
/// metrics-merge property tests (tests/arrival_batching_test.cc).
void merge_load_segments(const std::vector<std::vector<LoadSegment>>& logs,
                         double epoch_start, std::size_t num_servers,
                         LoadIntegrals& into);

/// Replays `trace` through `policy` on engines built from policy.config():
/// routed over the shards when the one shard rule above holds and more
/// than one shard is asked for, whole on the caller's policy otherwise.
/// Deterministic: the trace fixes all randomness, and the result is
/// invariant in the shard count and the pool.
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
