// Contracts of the edge-prefix-cache tier (DESIGN.md §9):
//
//   * PrefixCache is deterministic — scripted access sequences produce
//     exact residency, eviction, and counter traces for both LRU and LFU,
//     and random sequences match the O(M) victim scan it replaced after
//     every operation, used bytes bit-equal;
//   * a zero-capacity tier is no tier: ReplicatedPolicy with it replays the
//     tier-less ReplicatedPolicy decision-for-decision over random worlds,
//     every counter (typed rejection reasons included) and float
//     bit-identical, and exposes no cache stats at all;
//   * rejection attribution is exact: blocked suffix after a hit is plain
//     kNoBandwidth, a miss against a busy origin is kCacheMissOriginBusy,
//     dead holders stay kNoReplicaAlive, and the reason breakdown always
//     sums to the rejected total.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/layout.h"
#include "src/obs/event_log.h"
#include "src/sim/engine.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/sampler.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

std::size_t reason_count(const SimResult& result, obs::RejectReason reason) {
  return result.rejected_by_reason[static_cast<std::size_t>(reason)];
}

std::size_t reason_sum(const SimResult& result) {
  std::size_t sum = 0;
  for (const std::size_t count : result.rejected_by_reason) sum += count;
  return sum;
}

TEST(PrefixCacheTest, LruEvictsLeastRecentlyTouched) {
  PrefixCache cache(CacheEvictionPolicy::kLru, 200.0, {100.0, 100.0, 100.0});
  EXPECT_FALSE(cache.lookup(0));
  cache.insert(0);
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);
  // Touching 0 makes 1 the least recently used entry.
  EXPECT_TRUE(cache.lookup(0));
  EXPECT_FALSE(cache.lookup(2));
  cache.insert(2);
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));
  const CacheTierStats& stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(cache.used_bytes(), 200.0);
  EXPECT_EQ(stats.capacity_bytes, 200.0);
}

TEST(PrefixCacheTest, LfuEvictsLeastFrequentAndBreaksTiesByRecency) {
  PrefixCache cache(CacheEvictionPolicy::kLfu, 200.0, {100.0, 100.0, 100.0});
  EXPECT_FALSE(cache.lookup(0));
  cache.insert(0);
  EXPECT_TRUE(cache.lookup(0));  // frequency of 0 rises to 2
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);  // frequency 1
  EXPECT_FALSE(cache.lookup(2));
  cache.insert(2);  // evicts 1: the only entry at frequency 1
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));

  // Raise 2 to frequency 2 as well; the tie now breaks by recency, and 0
  // (older last touch) is the victim.
  EXPECT_TRUE(cache.lookup(2));
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);
  EXPECT_FALSE(cache.resident(0));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().insertions, 4u);
}

TEST(PrefixCacheTest, OversizedEntryIsNeverAdmitted) {
  PrefixCache cache(CacheEvictionPolicy::kLru, 150.0, {100.0, 200.0});
  EXPECT_FALSE(cache.lookup(0));
  cache.insert(0);
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);  // 200 bytes can never fit in 150: skipped, no churn
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.used_bytes(), 100.0);
}

/// The O(M) victim scan PrefixCache used before its eviction-order lists,
/// kept verbatim as the oracle for the differential test below.
class ScanCache {
 public:
  ScanCache(CacheEvictionPolicy policy, double capacity_bytes,
            std::vector<double> entry_bytes)
      : policy_(policy),
        capacity_bytes_(capacity_bytes),
        entry_bytes_(std::move(entry_bytes)),
        resident_(entry_bytes_.size(), 0),
        freq_(entry_bytes_.size(), 0),
        last_touch_(entry_bytes_.size(), 0) {}

  bool lookup(std::size_t video) {
    ++tick_;
    if (resident_[video] != 0) {
      ++freq_[video];
      last_touch_[video] = tick_;
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    return false;
  }

  void insert(std::size_t video) {
    if (resident_[video] != 0) return;
    const double bytes = entry_bytes_[video];
    if (bytes > capacity_bytes_) return;
    while (stats_.used_bytes + bytes > capacity_bytes_) {
      const std::size_t victim = pick_victim();
      if (victim == resident_.size()) {
        stats_.used_bytes = 0.0;
        break;
      }
      resident_[victim] = 0;
      stats_.used_bytes -= entry_bytes_[victim];
      ++stats_.evictions;
    }
    ++tick_;
    resident_[video] = 1;
    freq_[video] = 1;
    last_touch_[video] = tick_;
    stats_.used_bytes += bytes;
    ++stats_.insertions;
  }

  bool resident(std::size_t video) const { return resident_[video] != 0; }
  const CacheTierStats& stats() const { return stats_; }

 private:
  std::size_t pick_victim() const {
    std::size_t victim = resident_.size();
    for (std::size_t i = 0; i < resident_.size(); ++i) {
      if (resident_[i] == 0) continue;
      if (victim == resident_.size()) {
        victim = i;
        continue;
      }
      if (policy_ == CacheEvictionPolicy::kLru) {
        if (last_touch_[i] < last_touch_[victim]) victim = i;
      } else {
        if (freq_[i] < freq_[victim] ||
            (freq_[i] == freq_[victim] &&
             last_touch_[i] < last_touch_[victim])) {
          victim = i;
        }
      }
    }
    return victim;
  }

  CacheEvictionPolicy policy_;
  double capacity_bytes_;
  std::vector<double> entry_bytes_;
  std::vector<std::uint8_t> resident_;
  std::vector<std::uint64_t> freq_;
  std::vector<std::uint64_t> last_touch_;
  std::uint64_t tick_ = 0;
  CacheTierStats stats_;
};

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_same_state(const PrefixCache& actual, const ScanCache& expected,
                       std::size_t num_videos) {
  for (std::size_t v = 0; v < num_videos; ++v) {
    ASSERT_EQ(actual.resident(v), expected.resident(v)) << "video " << v;
  }
  const CacheTierStats& a = actual.stats();
  const CacheTierStats& e = expected.stats();
  ASSERT_EQ(a.hits, e.hits);
  ASSERT_EQ(a.misses, e.misses);
  ASSERT_EQ(a.evictions, e.evictions);
  ASSERT_EQ(a.insertions, e.insertions);
  ASSERT_EQ(bits(a.used_bytes), bits(e.used_bytes));
  ASSERT_EQ(bits(actual.used_bytes()), bits(e.used_bytes));
}

TEST(PrefixCacheTest, MatchesScanOracleOnRandomSequences) {
  Rng rng(0xCAC4E);
  std::uint64_t evictions = 0;
  std::uint64_t oversized = 0;
  std::uint64_t top_frequency_run = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto policy = trial % 2 == 0 ? CacheEvictionPolicy::kLru
                                       : CacheEvictionPolicy::kLfu;
    const std::size_t m = 1 + rng.uniform_index(120);
    // Mixed sizes with awkward binary fractions, so eviction leaves rounding
    // residue in used_bytes.
    std::vector<double> entry_bytes(m);
    double catalogue = 0.0;
    for (double& bytes : entry_bytes) {
      bytes = rng.uniform(0.1, 100.0);
      catalogue += bytes;
    }
    // From about one entry up to most of the catalogue.
    const double capacity =
        rng.bernoulli(0.2) ? rng.uniform(0.1, 100.0)
                           : rng.uniform(0.05, 0.9) * catalogue;
    // Some entries can never fit.
    for (double& bytes : entry_bytes) {
      if (rng.bernoulli(0.05)) bytes = capacity * rng.uniform(1.0001, 3.0);
    }
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " M=" << m << " capacity=" << capacity
                 << (policy == CacheEvictionPolicy::kLru ? " LRU" : " LFU"));

    PrefixCache actual(policy, capacity, entry_bytes);
    ScanCache expected(policy, capacity, entry_bytes);
    const auto popularity = zipf_popularity(m, rng.uniform(0.0, 1.2));
    const DiscreteSampler sampler(popularity);
    const std::size_t ops = 200 + rng.uniform_index(1200);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t video = sampler.sample(rng);
      if (rng.bernoulli(0.02)) {
        // A long run of hits on one entry drives its frequency far above
        // the rest.
        const std::size_t run = 20 + rng.uniform_index(300);
        for (std::size_t k = 0; k < run; ++k) {
          ASSERT_EQ(actual.lookup(video), expected.lookup(video));
        }
        if (expected.resident(video)) {
          top_frequency_run = std::max<std::uint64_t>(top_frequency_run, run);
        }
      } else if (rng.bernoulli(0.05)) {
        // An insert without a preceding lookup, possibly of a resident entry.
        actual.insert(video);
        expected.insert(video);
      } else {
        // The policy's own pattern: lookup, then insert on a miss.
        const bool hit = expected.lookup(video);
        ASSERT_EQ(actual.lookup(video), hit);
        if (!hit) {
          actual.insert(video);
          expected.insert(video);
        }
      }
      expect_same_state(actual, expected, m);
      if (testing::Test::HasFatalFailure()) return;
    }
    evictions += expected.stats().evictions;
    for (std::size_t v = 0; v < m; ++v) {
      if (entry_bytes[v] > capacity) ++oversized;
    }
  }
  EXPECT_GT(evictions, 10000u);
  EXPECT_GT(oversized, 0u);
  EXPECT_GT(top_frequency_run, 100u);
}

struct World {
  std::size_t num_videos;
  std::size_t num_servers;
  SimConfig config;
  RequestTrace trace;
};

/// Same world family as tests/sim_equivalence_test.cc, plus the replication
/// extensions (redirect, backbone proxy, batching) the policy pair must
/// also agree on when the cache tier is disabled.
World random_world(Rng& rng) {
  World world;
  world.num_videos = 5 + rng.uniform_index(40);
  world.num_servers = 2 + rng.uniform_index(9);
  world.config.num_servers = world.num_servers;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
  if (rng.bernoulli(0.3)) {
    world.config.per_server_bandwidth_bps.resize(world.num_servers);
    for (double& b : world.config.per_server_bandwidth_bps) {
      b = units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
    }
  }
  world.config.video_duration_sec = rng.uniform(50.0, 2000.0);
  switch (rng.uniform_index(3)) {
    case 1:
      world.config.redirect = RedirectMode::kOtherHolders;
      break;
    case 2:
      world.config.redirect = RedirectMode::kBackboneProxy;
      world.config.backbone_bps =
          units::mbps(4) * static_cast<double>(1 + rng.uniform_index(10));
      break;
    default:
      break;
  }
  if (rng.bernoulli(0.3)) {
    world.config.batching_window_sec = rng.uniform(5.0, 60.0);
    world.config.batching_mode = rng.bernoulli(0.5)
                                     ? BatchingMode::kPiggyback
                                     : BatchingMode::kPatching;
  }

  const double horizon = rng.uniform(200.0, 3000.0);
  if (rng.bernoulli(0.5)) {
    const std::size_t crashes = 1 + rng.uniform_index(2);
    double t = 0.0;
    for (std::size_t k = 0; k < crashes; ++k) {
      t += rng.uniform(1.0, horizon / 2.0);
      world.config.failures.push_back(ServerFailure{
          t, static_cast<std::size_t>(rng.uniform_index(world.num_servers))});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.05, 1.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(world.num_videos, rng.uniform(0.0, 1.1));
  if (rng.bernoulli(0.4)) {
    spec.abandonment.completion_probability = rng.uniform(0.2, 1.0);
  }
  world.trace = generate_trace(rng, spec);
  return world;
}

/// Each video gets 1..N distinct holders: a Fisher-Yates prefix of a fresh
/// identity permutation.
Layout random_layout(Rng& rng, std::size_t num_videos,
                     std::size_t num_servers) {
  HostLists hosts(num_videos);
  std::vector<std::size_t> servers(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) servers[s] = s;
  for (auto& holders : hosts) {
    const std::size_t replicas = 1 + rng.uniform_index(num_servers);
    for (std::size_t k = 0; k < replicas; ++k) {
      const std::size_t j = k + rng.uniform_index(num_servers - k);
      std::swap(servers[k], servers[j]);
      holders.push_back(servers[k]);
    }
  }
  return Layout(hosts);
}

/// Bit-exact: a zero-capacity tier runs the very same code path, so even the
/// integrated float metrics must be identical, not merely close.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_by_reason, b.rejected_by_reason);
  EXPECT_EQ(a.redirected, b.redirected);
  EXPECT_EQ(a.proxied, b.proxied);
  EXPECT_EQ(a.batched, b.batched);
  EXPECT_EQ(a.disrupted, b.disrupted);
  EXPECT_EQ(a.served_per_server, b.served_per_server);
  EXPECT_EQ(a.mean_imbalance_eq2, b.mean_imbalance_eq2);
  EXPECT_EQ(a.mean_imbalance_cv, b.mean_imbalance_cv);
  EXPECT_EQ(a.mean_imbalance_capacity, b.mean_imbalance_capacity);
  EXPECT_EQ(a.peak_imbalance_eq2, b.peak_imbalance_eq2);
  EXPECT_EQ(a.utilization_per_server, b.utilization_per_server);
}

TEST(PrefixCachePolicyTest, ZeroCapacityReplaysReplicatedPolicyExactly) {
  Rng rng(0xCA5E0);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world = random_world(rng);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers);

    SimEngine engine_replicated(world.config);
    ReplicatedPolicy replicated(layout, world.config);
    const SimResult expected = engine_replicated.run(replicated, world.trace);

    PrefixCacheOptions options;
    options.capacity_bytes = 0.0;  // disables the tier entirely
    SimEngine engine_cached(world.config);
    ReplicatedPolicy cached(layout, world.config, options);
    EXPECT_EQ(cached.cache_stats(), nullptr);
    const SimResult actual = engine_cached.run(cached, world.trace);

    expect_identical(expected, actual);
    EXPECT_EQ(actual.cache_hits, 0u);
    EXPECT_EQ(actual.cache_misses, 0u);
    EXPECT_EQ(actual.cache_evictions, 0u);
    EXPECT_EQ(reason_count(actual, obs::RejectReason::kCacheMissOriginBusy),
              0u);
    EXPECT_EQ(reason_sum(actual), actual.rejected);
  }
}

// One server with bandwidth for exactly one concurrent stream, two videos
// both hosted there, 50% prefixes, and a scripted trace that walks every
// attribution branch:
//
//   t=0  video 0, wf 1.0  -> miss, admitted; full stream holds [0, 100)
//   t=1  video 0, wf 1.0  -> hit, suffix blocked          => kNoBandwidth
//   t=2  video 1, wf 1.0  -> miss, origin busy            => kCacheMissOriginBusy
//   t=3  video 0, wf 0.4  -> hit inside prefix, admitted from the edge
//   t=4  server 0 crashes (disrupts the t=0 stream)
//   t=5  video 0, wf 1.0  -> hit, suffix but holder dead  => kNoReplicaAlive
//   t=6  video 1, wf 1.0  -> miss, holder dead            => kNoReplicaAlive
//   t=7  video 0, wf 0.3  -> hit inside prefix, admitted despite the crash
TEST(PrefixCachePolicyTest, RejectionAttributionIsExact) {
  SimConfig config;
  config.num_servers = 1;
  config.stream_bitrate_bps = units::mbps(4);
  config.bandwidth_bps_per_server = units::mbps(4);
  config.video_duration_sec = 100.0;
  config.failures.push_back(ServerFailure{4.0, 0});

  const Layout layout{{0}, {0}};

  RequestTrace trace;
  trace.horizon = 200.0;
  trace.requests = {
      Request{0.0, 0, 1.0}, Request{1.0, 0, 1.0}, Request{2.0, 1, 1.0},
      Request{3.0, 0, 0.4}, Request{5.0, 0, 1.0}, Request{6.0, 1, 1.0},
      Request{7.0, 0, 0.3},
  };
  ASSERT_TRUE(trace.is_well_formed());

  PrefixCacheOptions options;
  options.eviction = CacheEvictionPolicy::kLru;
  options.capacity_bytes = units::gigabytes(1.0);
  options.uniform_prefix_fraction = 0.5;

  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config, options);
  ASSERT_NE(policy.cache_stats(), nullptr);
  const SimResult result = engine.run(policy, trace);

  EXPECT_EQ(result.total_requests, 7u);
  EXPECT_EQ(result.rejected, 4u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoBandwidth), 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kCacheMissOriginBusy), 1u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNoReplicaAlive), 2u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kNone), 0u);
  EXPECT_EQ(reason_count(result, obs::RejectReason::kStripeUnavailable), 0u);
  EXPECT_EQ(reason_sum(result), result.rejected);

  // Only the t=0 request ever reserved origin bandwidth, and the crash
  // killed that stream; the two in-prefix hits were served from the edge.
  EXPECT_EQ(result.disrupted, 1u);
  ASSERT_EQ(result.served_per_server.size(), 1u);
  EXPECT_EQ(result.served_per_server[0], 1u);

  // Cache traffic: hits at t=1, 3, 5, 7; misses at t=0, 2, 6.  The rejected
  // miss at t=2 must NOT have populated the cache — video 1 misses again at
  // t=6 — and nothing was ever evicted.
  EXPECT_EQ(result.cache_hits, 4u);
  EXPECT_EQ(result.cache_misses, 3u);
  EXPECT_EQ(result.cache_evictions, 0u);
  EXPECT_DOUBLE_EQ(result.cache_hit_ratio(), 4.0 / 7.0);
}

// With ample bandwidth every request is admitted, and repeat requests for a
// cached video hold origin bandwidth only for the suffix — observable as a
// perfect hit ratio after the first touch of each video.
TEST(PrefixCachePolicyTest, RepeatTrafficHitsTheCache) {
  SimConfig config;
  config.num_servers = 2;
  config.stream_bitrate_bps = units::mbps(4);
  config.bandwidth_bps_per_server = units::mbps(400);
  config.video_duration_sec = 100.0;

  const Layout layout{{0, 1}, {1}};

  RequestTrace trace;
  trace.horizon = 500.0;
  for (int k = 0; k < 20; ++k) {
    trace.requests.push_back(
        Request{static_cast<double>(k), static_cast<std::size_t>(k % 2), 1.0});
  }
  ASSERT_TRUE(trace.is_well_formed());

  PrefixCacheOptions options;
  options.capacity_bytes = units::gigabytes(1.0);
  options.uniform_prefix_fraction = 0.25;

  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config, options);
  const SimResult result = engine.run(policy, trace);

  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.cache_misses, 2u);  // first touch of each video
  EXPECT_EQ(result.cache_hits, 18u);
  EXPECT_DOUBLE_EQ(result.cache_hit_ratio(), 18.0 / 20.0);
}

}  // namespace
}  // namespace vodrep
