// Differential tier for simulate()'s one shard rule
// (src/sim/sharded_engine.h).  A tier-less ReplicatedPolicy under
// RedirectMode::kNone with fresh collectors routes over the shards; across
// many random worlds — random layouts, heterogeneous fleets, failure
// injection, batching, abandonment — its merged result at every shard count
// must agree with the whole replay: counters and per-server tallies
// bit-exact (EXPECT_EQ), float metrics within 1e-7 (the Eq. 2/3 integrals
// are rebuilt from per-shard segment streams, so only cross-server float
// associativity differs), the per-reason rejection breakdown always summing
// exactly to the rejection total, and merged timelines/event logs matching
// the whole replay's sample for sample and record for record.  Every other
// configuration — striping, hybrid layouts, redirects, a live edge tier,
// used collectors — replays whole at any shard count and must equal the
// one-shard replay exactly.
//
// The small ShardedEngineThreads suite at the bottom reruns a handful of
// worlds on a real ThreadPool; it is the surface the tsan preset exercises
// (shard engines share no mutable state, and the epoch barrier is the only
// synchronization point).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/core/striping.h"
#include "src/obs/event_log.h"
#include "src/obs/profile.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

constexpr double kFloatTol = 1e-7;
const std::array<std::size_t, 4> kShardCounts = {1, 2, 4, 8};

// ---------------------------------------------------------------------------
// Random-world generation.
// ---------------------------------------------------------------------------

struct World {
  std::size_t num_servers = 0;
  std::size_t num_videos = 0;
  SimConfig config;
  RequestTrace trace;
};

/// Random replica layout: each video on 1..max_replicas distinct servers.
Layout random_layout(Rng& rng, std::size_t num_videos,
                     std::size_t num_servers, std::size_t max_replicas) {
  HostLists hosts(num_videos);
  std::vector<std::size_t> servers(num_servers);
  std::iota(servers.begin(), servers.end(), 0);
  for (std::size_t v = 0; v < num_videos; ++v) {
    const std::size_t r =
        1 + rng.uniform_index(std::min(max_replicas, num_servers));
    rng.shuffle(servers);
    hosts[v].assign(servers.begin(), servers.begin() + static_cast<long>(r));
  }
  return Layout(hosts);
}

/// Aligned hybrid layout: a video's group_replicas stripe groups live in one
/// disjoint server block, so distinct blocks shard independently.  One copy
/// is aligned striping with stripe_width | num_servers: the servers split
/// into num_servers / stripe_width disjoint groups, so the shard plan finds
/// real parallelism (the staggered make_striped_layout wrap is one
/// component).
HybridLayout aligned_hybrid_layout(std::size_t num_videos,
                                   std::size_t num_servers,
                                   std::size_t stripe_width,
                                   std::size_t group_replicas) {
  HybridLayout layout;
  layout.groups.resize(num_videos);
  const std::size_t block = stripe_width * group_replicas;
  const std::size_t num_blocks = num_servers / block;
  for (std::size_t v = 0; v < num_videos; ++v) {
    const std::size_t b = v % num_blocks;
    for (std::size_t r = 0; r < group_replicas; ++r) {
      std::vector<std::size_t> group;
      for (std::size_t k = 0; k < stripe_width; ++k) {
        group.push_back(b * block + r * stripe_width + k);
      }
      layout.groups[v].push_back(std::move(group));
    }
  }
  return layout;
}

/// Random world: sizes, a (possibly heterogeneous) fleet, a failure
/// schedule about half the time, and a Poisson/Zipf trace dense enough to
/// drive servers into rejection territory.
World random_world(Rng& rng, bool allow_extensions) {
  World world;
  world.num_servers = 4 + rng.uniform_index(13);   // 4..16
  world.num_videos = 8 + rng.uniform_index(33);    // 8..40
  SimConfig& config = world.config;
  config.num_servers = world.num_servers;
  config.bandwidth_bps_per_server = units::mbps(100.0);
  if (rng.bernoulli(0.3)) {
    config.per_server_bandwidth_bps.resize(world.num_servers);
    for (double& b : config.per_server_bandwidth_bps) {
      b = units::mbps(rng.uniform(50.0, 200.0));
    }
  }
  config.stream_bitrate_bps = units::mbps(4.0);
  config.video_duration_sec = rng.uniform(40.0, 120.0);
  if (allow_extensions && rng.bernoulli(0.35)) {
    config.redirect = RedirectMode::kOtherHolders;
  }
  if (allow_extensions && rng.bernoulli(0.3)) {
    config.batching_window_sec = rng.uniform(0.5, 10.0);
    config.batching_mode = rng.bernoulli(0.5) ? BatchingMode::kPiggyback
                                              : BatchingMode::kPatching;
  }
  const double horizon = rng.uniform(150.0, 300.0);
  if (rng.bernoulli(0.5)) {
    const std::size_t failures = 1 + rng.uniform_index(3);
    std::vector<double> times(failures);
    for (double& t : times) t = rng.uniform(0.0, horizon);
    std::sort(times.begin(), times.end());
    for (double t : times) {
      config.failures.push_back(
          {t, rng.uniform_index(world.num_servers)});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(2.0, 8.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(world.num_videos, 0.729);
  if (rng.bernoulli(0.4)) spec.abandonment.completion_probability = 0.7;
  world.trace = generate_trace(rng, spec);
  return world;
}

// ---------------------------------------------------------------------------
// Result comparison.
// ---------------------------------------------------------------------------

/// The routed contract: counters and per-server tallies bit-exact, the
/// cross-shard float integrals within kFloatTol.
void expect_equivalent(const SimResult& whole, const SimResult& routed) {
  EXPECT_EQ(whole.total_requests, routed.total_requests);
  EXPECT_EQ(whole.rejected, routed.rejected);
  std::size_t reason_sum = 0;
  for (std::size_t r = 0; r < obs::kNumRejectReasons; ++r) {
    EXPECT_EQ(whole.rejected_by_reason[r], routed.rejected_by_reason[r])
        << "reason " << r;
    reason_sum += routed.rejected_by_reason[r];
  }
  EXPECT_EQ(reason_sum, routed.rejected);
  EXPECT_EQ(whole.redirected, routed.redirected);
  EXPECT_EQ(whole.proxied, routed.proxied);
  EXPECT_EQ(whole.batched, routed.batched);
  EXPECT_EQ(whole.disrupted, routed.disrupted);
  EXPECT_EQ(whole.cache_hits, routed.cache_hits);
  EXPECT_EQ(whole.cache_misses, routed.cache_misses);
  EXPECT_EQ(whole.cache_evictions, routed.cache_evictions);
  EXPECT_EQ(whole.served_per_server, routed.served_per_server);
  ASSERT_EQ(whole.utilization_per_server.size(),
            routed.utilization_per_server.size());
  for (std::size_t s = 0; s < whole.utilization_per_server.size(); ++s) {
    // Per-server: every busy-bandwidth mutation of a server happens in its
    // owning shard in whole-replay order, so the integral is bit-exact.
    EXPECT_EQ(whole.utilization_per_server[s],
              routed.utilization_per_server[s])
        << "server " << s;
  }
  EXPECT_NEAR(whole.mean_imbalance_eq2, routed.mean_imbalance_eq2, kFloatTol);
  EXPECT_NEAR(whole.mean_imbalance_cv, routed.mean_imbalance_cv, kFloatTol);
  EXPECT_NEAR(whole.mean_imbalance_capacity, routed.mean_imbalance_capacity,
              kFloatTol);
  EXPECT_NEAR(whole.peak_imbalance_eq2, routed.peak_imbalance_eq2, kFloatTol);
}

void expect_sample_equivalent(const obs::TimeSample& a,
                              const obs::TimeSample& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.max_utilization, b.max_utilization);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_NEAR(a.mean_utilization, b.mean_utilization, kFloatTol);
  EXPECT_NEAR(a.imbalance_eq2, b.imbalance_eq2, kFloatTol);
}

void expect_timelines_equivalent(const obs::TimeseriesCollector& whole,
                                 const obs::TimeseriesCollector& routed) {
  ASSERT_EQ(whole.size(), routed.size());
  EXPECT_EQ(whole.interval_sec(), routed.interval_sec());
  EXPECT_EQ(whole.downsample_factor(), routed.downsample_factor());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    expect_sample_equivalent(whole.sample(i), routed.sample(i));
  }
}

void expect_timelines_identical(const obs::TimeseriesCollector& whole,
                                const obs::TimeseriesCollector& other) {
  ASSERT_EQ(whole.size(), other.size());
  EXPECT_EQ(whole.interval_sec(), other.interval_sec());
  EXPECT_EQ(whole.downsample_factor(), other.downsample_factor());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_TRUE(whole.sample(i) == other.sample(i)) << "sample " << i;
  }
}

void expect_event_logs_identical(const obs::EventLog& whole,
                                 const obs::EventLog& other) {
  EXPECT_EQ(whole.seen(), other.seen());
  EXPECT_EQ(whole.dropped(), other.dropped());
  ASSERT_EQ(whole.records().size(), other.records().size());
  for (std::size_t i = 0; i < whole.records().size(); ++i) {
    EXPECT_EQ(whole.records()[i], other.records()[i]) << "record " << i;
  }
}

/// Whole reference replay with timeline + event log attached.
SimResult run_monolithic(StoragePolicy& policy, const SimConfig& config,
                         const RequestTrace& trace,
                         obs::TimeseriesCollector* timeline,
                         obs::EventLog* event_log) {
  SimEngine engine(config);
  if (timeline != nullptr) engine.attach_timeline(timeline);
  if (event_log != nullptr) engine.attach_event_log(event_log);
  return engine.run(policy, trace);
}

obs::TimeseriesConfig timeline_config() {
  // Fine enough that the kTimelineMaxSamples buffer fills (at 320 s) and
  // compaction triggers in most worlds.
  return obs::TimeseriesConfig{0.625};
}

constexpr std::size_t kEventLogCapacity = 200;  // forces drops in most worlds

/// Replays the policy `make_policy()` builds whole, then through simulate()
/// at every shard count of kShardCounts with fresh collectors, and checks
/// every replay against the whole one: exactly when `exact` (the
/// configuration replays whole), under the routed contract otherwise.
template <typename MakePolicy>
void expect_invariant_in_shards(const World& world,
                                const MakePolicy& make_policy, bool exact) {
  obs::TimeseriesCollector whole_timeline(timeline_config(),
                                          world.num_servers);
  obs::EventLog whole_log(kEventLogCapacity);
  auto policy = make_policy();
  const SimResult whole = run_monolithic(policy, world.config, world.trace,
                                         &whole_timeline, &whole_log);
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
    obs::EventLog log(kEventLogCapacity);
    SimOptions options;
    options.num_shards = shards;
    options.timeline = &timeline;
    options.event_log = &log;
    const SimResult result = simulate(make_policy(), world.trace, options);
    if (exact) {
      EXPECT_EQ(whole, result);
      expect_timelines_identical(whole_timeline, timeline);
    } else {
      expect_equivalent(whole, result);
      expect_timelines_equivalent(whole_timeline, timeline);
    }
    expect_event_logs_identical(whole_log, log);
  }
}

// ---------------------------------------------------------------------------
// The invariance sweeps: >= 50 worlds per organization, S in {1, 2, 4, 8}.
// ---------------------------------------------------------------------------

TEST(ShardInvariance, ReplicatedRandomWorlds) {
  // kNone worlds route under the routed contract; kOtherHolders worlds
  // replay whole and must match exactly.  The sweep runs until it has
  // routed 50 worlds.
  Rng rng(0x5eed0001);
  int routed_worlds = 0;
  for (int world_id = 0; routed_worlds < 50; ++world_id) {
    SCOPED_TRACE("world " + std::to_string(world_id));
    const World world = random_world(rng, /*allow_extensions=*/true);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers, 4);
    const bool whole = world.config.redirect != RedirectMode::kNone;
    if (!whole) ++routed_worlds;
    expect_invariant_in_shards(
        world, [&] { return ReplicatedPolicy(layout, world.config); }, whole);
  }
}

TEST(ShardInvariance, StripedRandomWorlds) {
  Rng rng(0x5eed0002);
  for (int world_id = 0; world_id < 50; ++world_id) {
    SCOPED_TRACE("world " + std::to_string(world_id));
    World world = random_world(rng, /*allow_extensions=*/false);
    // Alternate aligned (k | N, disjoint stripe groups) and staggered
    // (wrap-around) layouts.
    HybridLayout layout;
    if (world_id % 2 == 0) {
      const std::size_t k = 1 + rng.uniform_index(2);  // 1 or 2
      world.num_servers = (world.num_servers / k) * k;
      world.config.num_servers = world.num_servers;
      if (!world.config.per_server_bandwidth_bps.empty()) {
        world.config.per_server_bandwidth_bps.resize(world.num_servers);
      }
      for (ServerFailure& f : world.config.failures) {
        f.server %= world.num_servers;
      }
      layout =
          aligned_hybrid_layout(world.num_videos, world.num_servers, k, 1);
    } else {
      layout = make_striped_layout(world.num_videos, world.num_servers, 3);
    }
    expect_invariant_in_shards(
        world, [&] { return HybridPolicy(layout, world.config); },
        /*exact=*/true);
  }
}

TEST(ShardInvariance, HybridRandomWorlds) {
  Rng rng(0x5eed0003);
  for (int world_id = 0; world_id < 50; ++world_id) {
    SCOPED_TRACE("world " + std::to_string(world_id));
    World world = random_world(rng, /*allow_extensions=*/false);
    HybridLayout layout;
    if (world_id % 2 == 0) {
      constexpr std::size_t kBlock = 4;  // 2-wide groups, 2 copies
      world.num_servers = std::max<std::size_t>(
          kBlock, (world.num_servers / kBlock) * kBlock);
      world.config.num_servers = world.num_servers;
      if (!world.config.per_server_bandwidth_bps.empty()) {
        world.config.per_server_bandwidth_bps.resize(world.num_servers,
                                                     units::mbps(100.0));
      }
      for (ServerFailure& f : world.config.failures) {
        f.server %= world.num_servers;
      }
      layout = aligned_hybrid_layout(world.num_videos, world.num_servers, 2, 2);
    } else {
      world.num_servers = std::max<std::size_t>(6, world.num_servers);
      world.config.num_servers = world.num_servers;
      if (!world.config.per_server_bandwidth_bps.empty()) {
        world.config.per_server_bandwidth_bps.resize(world.num_servers,
                                                     units::mbps(100.0));
      }
      layout = make_hybrid_layout(world.num_videos, world.num_servers, 2, 2);
    }
    expect_invariant_in_shards(
        world, [&] { return HybridPolicy(layout, world.config); },
        /*exact=*/true);
  }
}

TEST(ShardInvariance, PrefixCacheRandomWorlds) {
  Rng rng(0x5eed0004);
  for (int world_id = 0; world_id < 50; ++world_id) {
    SCOPED_TRACE("world " + std::to_string(world_id));
    const World world = random_world(rng, /*allow_extensions=*/false);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers, 3);
    PrefixCacheOptions cache;
    cache.eviction = rng.bernoulli(0.5) ? CacheEvictionPolicy::kLru
                                        : CacheEvictionPolicy::kLfu;
    // A third of the worlds disable the tier (capacity 0): no tier, so the
    // replay routes; a live tier replays whole.
    cache.capacity_bytes =
        world_id % 3 == 0 ? 0.0 : rng.uniform(2.0, 10.0) * 1e9;
    cache.uniform_prefix_fraction = rng.uniform(0.1, 0.5);
    expect_invariant_in_shards(
        world, [&] { return ReplicatedPolicy(layout, world.config, cache); },
        /*exact=*/cache.capacity_bytes > 0.0);
  }
}

// ---------------------------------------------------------------------------
// Structural properties of the plan and runner.
// ---------------------------------------------------------------------------

TEST(ShardInvariance, MoreShardsThanServersIsFine) {
  Rng rng(0x5eed0006);
  World world = random_world(rng, /*allow_extensions=*/false);
  world.num_servers = 3;
  world.config.num_servers = 3;
  world.config.per_server_bandwidth_bps.clear();
  world.config.failures.clear();
  const Layout layout = random_layout(rng, world.num_videos, 3, 2);
  ReplicatedPolicy policy(layout, world.config);
  const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                        nullptr, nullptr);
  SimOptions options;
  options.num_shards = 8;  // the plan uses 3 shards, one per server
  const SimResult sharded =
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options);
  expect_equivalent(mono, sharded);
}

TEST(ShardInvariance, PlanUsesAtMostOneShardPerServer) {
  Rng rng(0x5eed000a);
  const World world = random_world(rng, /*allow_extensions=*/false);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  const std::size_t n = world.num_servers;
  const RoutedPlan plan = plan_routed_replay(layout, n, world.trace, 4 * n);
  EXPECT_EQ(plan.num_shards(), n);
  EXPECT_EQ(plan.picks.size(), n);
  std::size_t routed = 0;
  for (const auto& requests : plan.requests) routed += requests.size();
  EXPECT_EQ(routed, world.trace.size());
  // The replay at S = 4N is therefore the replay at S = N, bit for bit.
  SimOptions at_n;
  at_n.num_shards = n;
  SimOptions at_4n;
  at_4n.num_shards = 4 * n;
  EXPECT_EQ(
      simulate(ReplicatedPolicy(layout, world.config), world.trace, at_n),
      simulate(ReplicatedPolicy(layout, world.config), world.trace, at_4n));
}

TEST(ShardInvariance, BackboneProxyReplaysWholeAtMultipleShards) {
  // The shared backbone couples every server, so kBackboneProxy replays
  // whole and every shard count returns the one-shard result exactly.
  Rng rng(0x5eed0007);
  World world = random_world(rng, /*allow_extensions=*/false);
  world.config.redirect = RedirectMode::kBackboneProxy;
  world.config.backbone_bps = units::mbps(50.0);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  expect_invariant_in_shards(
      world, [&] { return ReplicatedPolicy(layout, world.config); },
      /*exact=*/true);
  SimOptions options;
  options.num_shards = 4;
  EXPECT_EQ(
      simulate(ReplicatedPolicy(layout, world.config), world.trace),
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options));
}

TEST(ShardInvariance, LiveCacheRejectsRoutedReplay) {
  // A live cache tier must refuse a routed pick sequence: prefix hits skip
  // the dispatcher, so precomputed picks cannot stay aligned.
  const Layout layout{{0}, {1}};
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(100.0);
  config.stream_bitrate_bps = units::mbps(4.0);
  config.video_duration_sec = 60.0;
  PrefixCacheOptions cache;
  cache.capacity_bytes = 1e9;
  ReplicatedPolicy policy(layout, config, cache);
  EXPECT_THROW(policy.set_routed_picks({0}), InvalidArgumentError);
}

TEST(ShardInvariance, PlanPartitionsTheTrace) {
  Rng rng(0x5eed0008);
  const World world = random_world(rng, /*allow_extensions=*/true);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 4);
  const std::size_t n = world.num_servers;
  const RequestTrace& trace = world.trace;
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const RoutedPlan plan = plan_routed_replay(layout, n, trace, shards);
    const std::size_t num_shards = std::min(shards, n);
    ASSERT_EQ(plan.num_shards(), num_shards);
    ASSERT_EQ(plan.picks.size(), num_shards);
    // Each request index appears once, in increasing order within its
    // shard's list.
    std::vector<std::int64_t> shard_of(trace.size(), -1);
    std::vector<std::uint32_t> pick_of(trace.size(), 0);
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::vector<std::uint32_t>& requests = plan.requests[s];
      ASSERT_EQ(plan.picks[s].size(), requests.size());
      for (std::size_t k = 0; k < requests.size(); ++k) {
        ASSERT_LT(requests[k], trace.size());
        if (k > 0) {
          EXPECT_LT(requests[k - 1], requests[k]);
        }
        EXPECT_EQ(shard_of[requests[k]], -1) << "request " << requests[k];
        shard_of[requests[k]] = static_cast<std::int64_t>(s);
        pick_of[requests[k]] = plan.picks[s][k];
      }
    }
    // ... on the shard owning the holder the round-robin picks for it.
    std::vector<std::size_t> rr(world.num_videos, 0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto holders = layout.hosts(trace.requests[i].video);
      const std::size_t pick = rr[trace.requests[i].video]++ % holders.size();
      EXPECT_EQ(pick_of[i], pick) << "request " << i;
      EXPECT_EQ(shard_of[i],
                static_cast<std::int64_t>(holders[pick] % num_shards))
          << "request " << i;
    }
  }
}

TEST(ShardInvariance, SecondReplayIntoOffsetCollectorsMatchesOneShard) {
  // What vodrep_plan --online-epochs --sim-shards does: two replays append
  // into one timeline and event log, the second at a time offset.  The
  // first finds fresh collectors and routes; the second finds them used and
  // replays whole.
  Rng rng(0x5eed000b);
  const World world = random_world(rng, /*allow_extensions=*/false);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  const double horizon = world.trace.horizon;
  const auto replay_twice = [&](std::size_t shards,
                                obs::TimeseriesCollector& timeline,
                                obs::EventLog& log) {
    SimOptions options;
    options.num_shards = shards;
    options.timeline = &timeline;
    options.event_log = &log;
    std::array<SimResult, 2> results;
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      timeline.set_time_offset(static_cast<double>(epoch) * horizon);
      log.set_time_offset(static_cast<double>(epoch) * horizon);
      results[epoch] = simulate(ReplicatedPolicy(layout, world.config),
                                world.trace, options);
    }
    return results;
  };
  obs::TimeseriesCollector whole_timeline(timeline_config(),
                                          world.num_servers);
  obs::EventLog whole_log(2 * world.trace.size());
  const std::array<SimResult, 2> whole =
      replay_twice(1, whole_timeline, whole_log);

  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
  obs::EventLog log(2 * world.trace.size());
  const std::array<SimResult, 2> sharded = replay_twice(4, timeline, log);
  recorder.set_enabled(false);
  const obs::ProfileSnapshot snap = obs::profile_snapshot(recorder);
  recorder.clear();
  ASSERT_EQ(snap.phases.size(), 2u);  // sorted by name
  EXPECT_EQ(snap.phases[0].name, "sim.run");
  EXPECT_EQ(snap.phases[0].count, 1u);
  EXPECT_EQ(snap.phases[1].name, "sim.sharded");
  EXPECT_EQ(snap.phases[1].count, 1u);

  expect_equivalent(whole[0], sharded[0]);
  EXPECT_EQ(whole[1], sharded[1]);
  ASSERT_EQ(whole_timeline.size(), timeline.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    if (whole_timeline.sample(i).time > horizon) {
      EXPECT_TRUE(whole_timeline.sample(i) == timeline.sample(i));
    } else {
      expect_sample_equivalent(whole_timeline.sample(i), timeline.sample(i));
    }
  }
  EXPECT_EQ(log.seen(), 2 * world.trace.size());
  expect_event_logs_identical(whole_log, log);
}

TEST(ShardInvariance, WholeReplayAtMultipleShardsRecordsOnlySimRun) {
  // With the trace recorder on, every replay that cannot route records the
  // one-engine sim.run span at S = 4, and none records sim.sharded.
  Rng rng(0x5eed000c);
  const World world = random_world(rng, /*allow_extensions=*/false);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  const HybridLayout striped =
      make_striped_layout(world.num_videos, world.num_servers, 2);
  SimConfig redirecting = world.config;
  redirecting.redirect = RedirectMode::kOtherHolders;
  PrefixCacheOptions cache;
  cache.capacity_bytes = 5e9;
  SimOptions options;
  options.num_shards = 4;

  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  (void)simulate(HybridPolicy(striped, world.config), world.trace, options);
  (void)simulate(ReplicatedPolicy(layout, redirecting), world.trace, options);
  (void)simulate(ReplicatedPolicy(layout, world.config, cache), world.trace,
                 options);
  recorder.set_enabled(false);
  const obs::ProfileSnapshot snap = obs::profile_snapshot(recorder);
  recorder.clear();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "sim.run");
  EXPECT_EQ(snap.phases[0].count, 3u);
}

TEST(ShardInvariance, TimelineSizedForAnotherServerCountIsRejected) {
  // Every sample copies all N utilizations into the collector, so one
  // built for fewer servers would be written past its end.
  Rng rng(0x5eed0009);
  const World world = random_world(rng, /*allow_extensions=*/false);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    obs::TimeseriesCollector timeline(timeline_config(),
                                      world.num_servers - 1);
    SimOptions options;
    options.num_shards = shards;
    options.timeline = &timeline;
    EXPECT_THROW(
        (void)simulate(ReplicatedPolicy(layout, world.config), world.trace,
                       options),
        InvalidArgumentError);
  }
}

// ---------------------------------------------------------------------------
// Threaded runs: the tsan surface (CMakePresets tsan preset runs this
// suite).  Small on purpose — the invariance sweeps above already cover the
// semantics; this only has to put real concurrency under the sanitizer.
// ---------------------------------------------------------------------------

TEST(ShardedEngineThreads, ReplicatedMatchesMonolithicOnAPool) {
  Rng rng(0x7ead0001);
  ThreadPool pool(4);
  for (int world_id = 0; world_id < 4; ++world_id) {
    const World world = random_world(rng, /*allow_extensions=*/true);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers, 4);
    ReplicatedPolicy policy(layout, world.config);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          nullptr, nullptr);
    SimOptions options;
    options.num_shards = 4;
    options.pool = &pool;
    const SimResult sharded =
        simulate(ReplicatedPolicy(layout, world.config), world.trace, options);
    expect_equivalent(mono, sharded);
  }
}

TEST(ShardedEngineThreads, StripedAndHybridMatchMonolithicOnAPool) {
  // Striped and hybrid replays run whole, so a pool changes nothing and the
  // result equals the one-engine replay exactly.
  Rng rng(0x7ead0002);
  ThreadPool pool(4);
  World world = random_world(rng, /*allow_extensions=*/false);
  world.num_servers = 8;
  world.config.num_servers = 8;
  world.config.per_server_bandwidth_bps.clear();
  for (ServerFailure& f : world.config.failures) f.server %= 8;
  SimOptions options;
  options.num_shards = 4;
  options.pool = &pool;
  for (const std::size_t copies : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("copies " + std::to_string(copies));
    const HybridLayout layout =
        aligned_hybrid_layout(world.num_videos, 8, 2, copies);
    HybridPolicy policy(layout, world.config);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          nullptr, nullptr);
    EXPECT_EQ(mono, simulate(HybridPolicy(layout, world.config), world.trace,
                             options));
  }
}

TEST(ShardedEngineThreads, TimelineAndEventLogMergeUnderThreads) {
  Rng rng(0x7ead0003);
  ThreadPool pool(4);
  const World world = random_world(rng, /*allow_extensions=*/false);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  obs::TimeseriesCollector mono_timeline(timeline_config(),
                                         world.num_servers);
  obs::EventLog mono_log(kEventLogCapacity);
  ReplicatedPolicy policy(layout, world.config);
  const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                        &mono_timeline, &mono_log);
  obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
  obs::EventLog log(kEventLogCapacity);
  SimOptions options;
  options.num_shards = 4;
  options.pool = &pool;
  options.timeline = &timeline;
  options.event_log = &log;
  const SimResult sharded =
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options);
  expect_equivalent(mono, sharded);
  expect_timelines_equivalent(mono_timeline, timeline);
  expect_event_logs_identical(mono_log, log);
}

}  // namespace
}  // namespace vodrep
