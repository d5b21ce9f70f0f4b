// Differential tier for the sharded simulation runner
// (src/sim/sharded_engine.h): across many random worlds — random layouts,
// heterogeneous fleets, failure injection, redirects, batching, and the
// prefix-cache tier — the sharded replay at every shard count must agree
// with the monolithic SimEngine: counters and per-server tallies bit-exact
// (EXPECT_EQ), float metrics within 1e-7 (the Eq. 2/3 integrals are rebuilt
// from per-shard segment streams, so only cross-server float associativity
// differs), the per-reason rejection breakdown always summing exactly to
// the rejection total, and merged timelines/event logs matching the
// monolithic ones sample for sample and record for record.
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
#include <vector>

#include "src/core/layout.h"
#include "src/core/striping.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/shard_plan.h"
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
  Layout layout;
  layout.assignment.resize(num_videos);
  std::vector<std::size_t> servers(num_servers);
  std::iota(servers.begin(), servers.end(), 0);
  for (std::size_t v = 0; v < num_videos; ++v) {
    const std::size_t r =
        1 + rng.uniform_index(std::min(max_replicas, num_servers));
    rng.shuffle(servers);
    layout.assignment[v].assign(servers.begin(),
                                servers.begin() + static_cast<long>(r));
  }
  return layout;
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

void expect_equivalent(const SimResult& mono, const SimResult& sharded) {
  EXPECT_EQ(mono.total_requests, sharded.total_requests);
  EXPECT_EQ(mono.rejected, sharded.rejected);
  std::size_t reason_sum = 0;
  for (std::size_t r = 0; r < obs::kNumRejectReasons; ++r) {
    EXPECT_EQ(mono.rejected_by_reason[r], sharded.rejected_by_reason[r])
        << "reason " << r;
    reason_sum += sharded.rejected_by_reason[r];
  }
  EXPECT_EQ(reason_sum, sharded.rejected);
  EXPECT_EQ(mono.redirected, sharded.redirected);
  EXPECT_EQ(mono.proxied, sharded.proxied);
  EXPECT_EQ(mono.batched, sharded.batched);
  EXPECT_EQ(mono.disrupted, sharded.disrupted);
  EXPECT_EQ(mono.cache_hits, sharded.cache_hits);
  EXPECT_EQ(mono.cache_misses, sharded.cache_misses);
  EXPECT_EQ(mono.cache_evictions, sharded.cache_evictions);
  EXPECT_EQ(mono.served_per_server, sharded.served_per_server);
  ASSERT_EQ(mono.utilization_per_server.size(),
            sharded.utilization_per_server.size());
  for (std::size_t s = 0; s < mono.utilization_per_server.size(); ++s) {
    // Per-server: every busy-bandwidth mutation of a server happens in its
    // owning shard in monolithic order, so the integral is bit-exact.
    EXPECT_EQ(mono.utilization_per_server[s],
              sharded.utilization_per_server[s])
        << "server " << s;
  }
  EXPECT_NEAR(mono.mean_imbalance_eq2, sharded.mean_imbalance_eq2, kFloatTol);
  EXPECT_NEAR(mono.mean_imbalance_cv, sharded.mean_imbalance_cv, kFloatTol);
  EXPECT_NEAR(mono.mean_imbalance_capacity, sharded.mean_imbalance_capacity,
              kFloatTol);
  EXPECT_NEAR(mono.peak_imbalance_eq2, sharded.peak_imbalance_eq2, kFloatTol);
}

void expect_timelines_equivalent(const obs::TimeseriesCollector& mono,
                                 const obs::TimeseriesCollector& sharded) {
  ASSERT_EQ(mono.size(), sharded.size());
  EXPECT_EQ(mono.interval_sec(), sharded.interval_sec());
  EXPECT_EQ(mono.downsample_factor(), sharded.downsample_factor());
  for (std::size_t i = 0; i < mono.size(); ++i) {
    const obs::TimeSample& a = mono.sample(i);
    const obs::TimeSample& b = sharded.sample(i);
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
}

void expect_event_logs_identical(const obs::EventLog& mono,
                                 const obs::EventLog& sharded) {
  EXPECT_EQ(mono.seen(), sharded.seen());
  EXPECT_EQ(mono.dropped(), sharded.dropped());
  ASSERT_EQ(mono.records().size(), sharded.records().size());
  for (std::size_t i = 0; i < mono.records().size(); ++i) {
    EXPECT_EQ(mono.records()[i], sharded.records()[i]) << "record " << i;
  }
}

/// Monolithic reference replay with timeline + event log attached.
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

// ---------------------------------------------------------------------------
// The invariance sweeps: >= 50 worlds per organization, S in {1, 2, 4, 8}.
// ---------------------------------------------------------------------------

TEST(ShardInvariance, ReplicatedRandomWorlds) {
  Rng rng(0x5eed0001);
  for (int world_id = 0; world_id < 50; ++world_id) {
    const World world = random_world(rng, /*allow_extensions=*/true);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers, 4);
    obs::TimeseriesCollector mono_timeline(timeline_config(),
                                           world.num_servers);
    obs::EventLog mono_log(kEventLogCapacity);
    ReplicatedPolicy policy(layout, world.config);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          &mono_timeline, &mono_log);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE("world " + std::to_string(world_id) + " shards " +
                   std::to_string(shards));
      obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
      obs::EventLog log(kEventLogCapacity);
      SimOptions options;
      options.num_shards = shards;
      options.timeline = &timeline;
      options.event_log = &log;
      const SimResult sharded = simulate(
          ReplicatedPolicy(layout, world.config), world.trace, options);
      expect_equivalent(mono, sharded);
      expect_timelines_equivalent(mono_timeline, timeline);
      expect_event_logs_identical(mono_log, log);
    }
  }
}

TEST(ShardInvariance, StripedRandomWorlds) {
  Rng rng(0x5eed0002);
  for (int world_id = 0; world_id < 50; ++world_id) {
    World world = random_world(rng, /*allow_extensions=*/false);
    // Alternate aligned (k | N, real parallelism) and staggered (one
    // component, exercises the padded-shard merge path) layouts.
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
    obs::TimeseriesCollector mono_timeline(timeline_config(),
                                           world.num_servers);
    obs::EventLog mono_log(kEventLogCapacity);
    HybridPolicy policy(layout, world.config);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          &mono_timeline, &mono_log);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE("world " + std::to_string(world_id) + " shards " +
                   std::to_string(shards));
      obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
      obs::EventLog log(kEventLogCapacity);
      SimOptions options;
      options.num_shards = shards;
      options.timeline = &timeline;
      options.event_log = &log;
      const SimResult sharded = simulate(
          HybridPolicy(layout, world.config), world.trace, options);
      expect_equivalent(mono, sharded);
      expect_timelines_equivalent(mono_timeline, timeline);
      expect_event_logs_identical(mono_log, log);
    }
  }
}

TEST(ShardInvariance, HybridRandomWorlds) {
  Rng rng(0x5eed0003);
  for (int world_id = 0; world_id < 50; ++world_id) {
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
    obs::TimeseriesCollector mono_timeline(timeline_config(),
                                           world.num_servers);
    obs::EventLog mono_log(kEventLogCapacity);
    HybridPolicy policy(layout, world.config);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          &mono_timeline, &mono_log);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE("world " + std::to_string(world_id) + " shards " +
                   std::to_string(shards));
      obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
      obs::EventLog log(kEventLogCapacity);
      SimOptions options;
      options.num_shards = shards;
      options.timeline = &timeline;
      options.event_log = &log;
      const SimResult sharded = simulate(
          HybridPolicy(layout, world.config), world.trace, options);
      expect_equivalent(mono, sharded);
      expect_timelines_equivalent(mono_timeline, timeline);
      expect_event_logs_identical(mono_log, log);
    }
  }
}

TEST(ShardInvariance, PrefixCacheRandomWorlds) {
  Rng rng(0x5eed0004);
  for (int world_id = 0; world_id < 50; ++world_id) {
    const World world = random_world(rng, /*allow_extensions=*/false);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers, 3);
    PrefixCacheOptions cache;
    cache.eviction = rng.bernoulli(0.5) ? CacheEvictionPolicy::kLru
                                        : CacheEvictionPolicy::kLfu;
    // A third of the worlds disable the tier (capacity 0): the plan then
    // shards by the replicated per-server rules instead of fusing.
    cache.capacity_bytes =
        world_id % 3 == 0 ? 0.0 : rng.uniform(2.0, 10.0) * 1e9;
    cache.uniform_prefix_fraction = rng.uniform(0.1, 0.5);
    obs::TimeseriesCollector mono_timeline(timeline_config(),
                                           world.num_servers);
    obs::EventLog mono_log(kEventLogCapacity);
    ReplicatedPolicy policy(layout, world.config, cache);
    const SimResult mono = run_monolithic(policy, world.config, world.trace,
                                          &mono_timeline, &mono_log);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE("world " + std::to_string(world_id) + " shards " +
                   std::to_string(shards));
      obs::TimeseriesCollector timeline(timeline_config(), world.num_servers);
      obs::EventLog log(kEventLogCapacity);
      SimOptions options;
      options.num_shards = shards;
      options.timeline = &timeline;
      options.event_log = &log;
      const SimResult sharded = simulate(
          ReplicatedPolicy(layout, world.config, cache), world.trace, options);
      expect_equivalent(mono, sharded);
      expect_timelines_equivalent(mono_timeline, timeline);
      expect_event_logs_identical(mono_log, log);
    }
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
  options.num_shards = 8;  // 5 shards own no server at all
  const SimResult sharded =
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options);
  expect_equivalent(mono, sharded);
}

TEST(ShardInvariance, BackboneProxyThrowsNamedErrorAtMultipleShards) {
  Rng rng(0x5eed0007);
  World world = random_world(rng, /*allow_extensions=*/false);
  world.config.redirect = RedirectMode::kBackboneProxy;
  world.config.backbone_bps = units::mbps(50.0);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 3);
  SimOptions options;
  options.num_shards = 2;
  EXPECT_THROW(
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options),
      InvalidArgumentError);
  // S == 1 takes the monolithic path and must keep working.
  options.num_shards = 1;
  const SimResult result =
      simulate(ReplicatedPolicy(layout, world.config), world.trace, options);
  EXPECT_EQ(result.total_requests, world.trace.size());
}

TEST(ShardInvariance, LiveCacheRejectsRoutedReplay) {
  // A live cache tier must refuse a routed pick sequence: prefix hits skip
  // the dispatcher, so precomputed picks cannot stay aligned.
  Layout layout;
  layout.assignment = {{0}, {1}};
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

/// Checks that a shard hook's result partitions `trace` over `num_shards`
/// shards and is closed: every server that `reach(request, pick)` says the
/// request's dispatch can touch is owned by the request's shard.  `pick` is
/// the routed holder index for routed plans and -1 otherwise.
template <typename Reach>
void expect_closed_partition(const PolicyShards& shards,
                             const RequestTrace& trace,
                             std::size_t num_servers, std::size_t num_shards,
                             const Reach& reach) {
  const ShardPlan& plan = shards.plan;
  ASSERT_EQ(plan.num_shards, num_shards);
  ASSERT_EQ(plan.sub_traces.size(), num_shards);
  ASSERT_EQ(plan.shard_of_request.size(), trace.size());
  ASSERT_EQ(plan.shard_of_server.size(), num_servers);
  ASSERT_EQ(shards.policies.size(), num_shards);
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    EXPECT_NE(shards.policies[s], nullptr);
    EXPECT_TRUE(plan.sub_traces[s].is_well_formed());
    EXPECT_EQ(plan.sub_traces[s].horizon, trace.horizon);
    if (plan.is_routed()) {
      EXPECT_EQ(plan.routed_pick_indices[s].size(), plan.sub_traces[s].size());
    }
    total += plan.sub_traces[s].size();
  }
  EXPECT_EQ(total, trace.size());
  // The routed sub-traces preserve the global order restricted to each
  // shard: replaying shard_of_request must reproduce every sub-trace.
  std::vector<std::size_t> cursor(num_shards, 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t s = plan.shard_of_request[i];
    ASSERT_LT(s, num_shards);
    ASSERT_LT(cursor[s], plan.sub_traces[s].size());
    EXPECT_EQ(trace.requests[i], plan.sub_traces[s].requests[cursor[s]]);
    const std::int64_t pick =
        plan.is_routed() ? std::int64_t{plan.routed_pick_indices[s][cursor[s]]}
                         : -1;
    for (const std::size_t server : reach(trace.requests[i], pick)) {
      EXPECT_EQ(plan.shard_of_server[server], s)
          << "request " << i << " reaches server " << server;
    }
    ++cursor[s];
  }
}

TEST(ShardInvariance, PlanPartitionsTheTrace) {
  Rng rng(0x5eed0008);
  const World world = random_world(rng, /*allow_extensions=*/true);
  const Layout layout =
      random_layout(rng, world.num_videos, world.num_servers, 4);
  const std::size_t n = world.num_servers;
  const std::size_t m = world.num_videos;
  SimConfig strict = world.config;
  strict.redirect = RedirectMode::kNone;
  SimConfig redirecting = world.config;
  redirecting.redirect = RedirectMode::kOtherHolders;
  // Striping and hybrid reject the replication-only fields; their layouts
  // live on 8 servers.
  SimConfig plain = strict;
  plain.batching_window_sec = 0.0;
  plain.num_servers = 8;
  plain.per_server_bandwidth_bps.clear();
  plain.failures.clear();

  // kNone replays the round-robin pick, and only the picked holder is
  // touched; every other rule may touch each server named here.
  std::vector<std::size_t> rr;
  const auto routed_pick = [&](const Request& request, std::int64_t pick) {
    const auto& holders = layout.assignment[request.video];
    const std::size_t expected = rr[request.video]++ % holders.size();
    EXPECT_EQ(pick, static_cast<std::int64_t>(expected));
    return std::vector<std::size_t>{holders[expected]};
  };
  const auto all_holders = [&](const Request& request, std::int64_t pick) {
    EXPECT_EQ(pick, -1);
    return layout.assignment[request.video];
  };
  std::vector<std::size_t> all_servers(n);
  std::iota(all_servers.begin(), all_servers.end(), 0);
  const auto every_server = [&](const Request&, std::int64_t pick) {
    EXPECT_EQ(pick, -1);
    return all_servers;
  };
  const auto stripe_group = [](const HybridLayout& striped) {
    return [&striped](const Request& request, std::int64_t pick) {
      EXPECT_EQ(pick, -1);
      return striped.groups[request.video][0];
    };
  };
  const HybridLayout hybrid = make_hybrid_layout(m, 8, 2, 2);
  const auto all_copies = [&](const Request& request, std::int64_t pick) {
    EXPECT_EQ(pick, -1);
    std::vector<std::size_t> members;
    for (const auto& group : hybrid.groups[request.video]) {
      members.insert(members.end(), group.begin(), group.end());
    }
    return members;
  };
  const HybridLayout aligned = aligned_hybrid_layout(m, 8, 2, 1);
  const HybridLayout staggered = make_striped_layout(m, 8, 3);
  PrefixCacheOptions no_cache;
  PrefixCacheOptions live_cache;
  live_cache.capacity_bytes = 5e9;

  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    rr.assign(m, 0);
    expect_closed_partition(
        ReplicatedPolicy(layout, strict).shard(world.trace, shards),
        world.trace, n, shards, routed_pick);
    expect_closed_partition(
        ReplicatedPolicy(layout, redirecting).shard(world.trace, shards),
        world.trace, n, shards, all_holders);
    rr.assign(m, 0);
    expect_closed_partition(
        ReplicatedPolicy(layout, strict, no_cache).shard(world.trace, shards),
        world.trace, n, shards, routed_pick);
    expect_closed_partition(ReplicatedPolicy(layout, strict, live_cache)
                                .shard(world.trace, shards),
                            world.trace, n, shards, every_server);
    expect_closed_partition(
        HybridPolicy(aligned, plain).shard(world.trace, shards), world.trace,
        8, shards, stripe_group(aligned));
    expect_closed_partition(
        HybridPolicy(staggered, plain).shard(world.trace, shards),
        world.trace, 8, shards, stripe_group(staggered));
    expect_closed_partition(
        HybridPolicy(hybrid, plain).shard(world.trace, shards), world.trace,
        8, shards, all_copies);
  }
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
  Rng rng(0x7ead0002);
  ThreadPool pool(4);
  World world = random_world(rng, /*allow_extensions=*/false);
  world.num_servers = 8;
  world.config.num_servers = 8;
  world.config.per_server_bandwidth_bps.clear();
  for (ServerFailure& f : world.config.failures) f.server %= 8;

  const HybridLayout striped = aligned_hybrid_layout(world.num_videos, 8, 2, 1);
  HybridPolicy striped_policy(striped, world.config);
  const SimResult striped_mono = run_monolithic(
      striped_policy, world.config, world.trace, nullptr, nullptr);
  SimOptions options;
  options.num_shards = 4;
  options.pool = &pool;
  expect_equivalent(striped_mono,
                    simulate(HybridPolicy(striped, world.config),
                             world.trace, options));

  const HybridLayout hybrid = aligned_hybrid_layout(world.num_videos, 8, 2, 2);
  HybridPolicy hybrid_policy(hybrid, world.config);
  const SimResult hybrid_mono = run_monolithic(
      hybrid_policy, world.config, world.trace, nullptr, nullptr);
  expect_equivalent(hybrid_mono,
                    simulate(HybridPolicy(hybrid, world.config), world.trace,
                             options));
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
