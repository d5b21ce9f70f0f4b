// Partitioning plans for sharded simulation (src/sim/sharded_engine.h).
//
// A shard plan splits the cluster's servers into S disjoint shards and
// routes every request of a trace to exactly one shard, such that each
// shard's replay touches only its own servers' bandwidth state.  When that
// holds, running S independent SimEngines over the routed sub-traces is
// *exactly* equivalent to the monolithic replay: admission depends only on
// the target servers' state, every counter is a per-shard sum, and the
// per-server float accumulators see the same operations in the same order.
//
// Which servers must share a shard depends on what a dispatch decision
// reads, so each StoragePolicy owns its rule (StoragePolicy::shard):
//
//   * ReplicatedPolicy, RedirectMode::kNone — per-SERVER granularity.  The
//     dispatcher's round-robin advance is unconditional (it precedes the
//     batching join and the admission check), so the picked holder of every
//     request is a pure function of the request sequence.  A sequential
//     pre-pass replays the counters, routes each request to the shard
//     owning its picked holder, and records the pick for the shard's
//     dispatcher to replay (Dispatcher::set_routed_picks).  The batching
//     join window is keyed by (video, picked holder), so it is owned by the
//     same shard.  Rejection attribution reads other holders' *failed*
//     flags only, and every shard applies the full failure schedule, so the
//     flags are globally correct in every shard.
//   * ReplicatedPolicy, RedirectMode::kOtherHolders — redirect retries read
//     the live load of every holder of the video, so all holders of a video
//     must be co-sharded: connected components of the "share a video"
//     relation over servers.
//   * RedirectMode::kBackboneProxy — proxies streams through arbitrary
//     non-holders under a shared backbone budget; every server is coupled.
//     Unshardable: requesting more than one shard throws a named error.
//   * ReplicatedPolicy with a live edge tier — the shared edge cache
//     couples every video through capacity eviction, and cache residency
//     depends on origin admissions; all servers fuse into one component
//     (the run still exercises the sharded merge path, with idle padding
//     shards).  A zero-capacity tier is no tier and shards by the rules
//     above.
//   * HybridPolicy — a stream reserves bitrate/k on every stripe-group
//     member atomically, and the per-video group rotation couples every
//     copy of a video, so all members of all copies of a video are
//     co-sharded: connected components over that membership.  Aligned
//     one-copy striping with k | N yields N/k independent components; the
//     staggered wrap-around layout is one component and stays serial.
//
// This file holds the organization-independent pieces those rules share:
// the plan itself, a union-find over servers, and the packing of its
// components onto shards.  Every shard runs with the full server vector and
// the full failure schedule; foreign servers simply never see traffic, so
// their state stays exactly zero and merged sums are exact.  Components are
// assigned to shards deterministically (greedy least-loaded in discovery
// order), so the plan — and therefore the merged result — is a pure
// function of (layout, config, trace, S).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/dispatcher.h"  // RedirectMode
#include "src/workload/trace.h"

namespace vodrep {

struct ShardPlan {
  std::size_t num_shards = 1;
  /// Owning shard per server (size num_servers).
  std::vector<std::uint32_t> shard_of_server;
  /// Routed sub-trace per shard (order-preserving partition of the input
  /// trace; every sub-trace keeps the global horizon).
  std::vector<RequestTrace> sub_traces;
  /// Owning shard per request, in global trace order (drives the
  /// deterministic event-log merge).
  std::vector<std::uint32_t> shard_of_request;
  /// Per-server-granularity plans only: the precomputed holder-pick index
  /// for each routed request, aligned with sub_traces[shard].requests
  /// (empty vectors for component-granularity plans, whose shard-local
  /// round-robin counters already see every request of their videos).
  std::vector<std::vector<std::uint32_t>> routed_pick_indices;

  [[nodiscard]] bool is_routed() const { return !routed_pick_indices.empty(); }
};

/// Plain union-find over server ids with path halving.  The merge order is
/// irrelevant to the plan: component_plan numbers components by their
/// smallest server id, not by root.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Assigns the connected components of `uf` to shards and routes the trace
/// by video.  Components are numbered in order of their smallest server id
/// and placed greedily on the least-loaded shard (by server count, ties to
/// the lowest shard id).  `anchor_server_of_video[v]` is any server of v's
/// component.
[[nodiscard]] ShardPlan component_plan(
    UnionFind& uf, std::size_t num_servers,
    const std::vector<std::size_t>& anchor_server_of_video,
    const RequestTrace& trace, std::size_t num_shards);

/// Throws the named error for RedirectMode::kBackboneProxy at more than one
/// shard (the shared backbone couples every server), and for zero shards.
void require_shardable_redirect(RedirectMode redirect, std::size_t num_shards);

}  // namespace vodrep
