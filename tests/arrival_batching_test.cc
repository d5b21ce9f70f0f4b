// Block Poisson arrival generation (poisson_arrivals_block) and the
// sharded metrics merge (merge_load_segments), both proven against their
// per-event counterparts:
//
//   * block generation is bit-for-bit the per-event RNG stream — at block
//     size 1 and at every other block size, generate_trace's kArrivalBlock
//     among them — down to the generator state left behind after a
//     mid-block horizon crossing (the snapshot/rewind contract);
//   * the segment-stream sweep reproduces a brute-force union-timeline
//     integration on randomized per-shard streams, and sharded runs over
//     hand-built adversarial traces (simultaneous cross-shard arrivals,
//     arrivals exactly on a merge-epoch boundary, coinciding departures)
//     match the monolithic engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/engine.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/arrivals.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

constexpr double kFloatTol = 1e-7;

/// Compares the full post-call generator states by drawing from both.
void expect_same_rng_state(Rng a, Rng b) {
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

// ---------------------------------------------------------------------------
// poisson_arrivals_block == poisson_arrivals, times and RNG stream.
// ---------------------------------------------------------------------------

TEST(ArrivalBatching, BlockSizeOneReplaysThePerEventStream) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    Rng reference(seed);
    Rng blocked(seed);
    const std::vector<double> expected =
        poisson_arrivals(reference, 3.0, 250.0);
    const std::vector<double> actual =
        poisson_arrivals_block(blocked, 3.0, 250.0, 1);
    EXPECT_EQ(expected, actual);
    expect_same_rng_state(reference, blocked);
  }
}

TEST(ArrivalBatching, EveryBlockSizeIsBitIdentical) {
  const std::array<std::size_t, 6> blocks = {1, 2, 3, 7, kArrivalBlock, 4096};
  for (const std::uint64_t seed : {7ULL, 99ULL, 0xabcdefULL}) {
    for (const double rate : {0.5, 4.0, 50.0}) {
      Rng reference(seed);
      const std::vector<double> expected =
          poisson_arrivals(reference, rate, 100.0);
      for (const std::size_t block : blocks) {
        Rng rng(seed);
        const std::vector<double> actual =
            poisson_arrivals_block(rng, rate, 100.0, block);
        ASSERT_EQ(expected, actual)
            << "seed " << seed << " rate " << rate << " block " << block;
        expect_same_rng_state(reference, rng);
      }
    }
  }
}

TEST(ArrivalBatching, DegenerateInputsMatchPerEvent) {
  Rng a(5);
  Rng b(5);
  EXPECT_TRUE(poisson_arrivals_block(a, 0.0, 100.0, 64).empty());
  EXPECT_TRUE(poisson_arrivals(b, 0.0, 100.0).empty());
  expect_same_rng_state(a, b);
  EXPECT_TRUE(poisson_arrivals_block(a, 3.0, 0.0, 64).empty());
  EXPECT_TRUE(poisson_arrivals(b, 3.0, 0.0).empty());
  expect_same_rng_state(a, b);
  // A tiny horizon: the very first draw usually crosses, exercising the
  // rewind on the first block element.
  const std::vector<double> blocked = poisson_arrivals_block(a, 1.0, 1e-9, 64);
  const std::vector<double> ref = poisson_arrivals(b, 1.0, 1e-9);
  EXPECT_EQ(ref, blocked);
  expect_same_rng_state(a, b);
  EXPECT_THROW(poisson_arrivals_block(a, 1.0, 1.0, 0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// merge_load_segments vs a brute-force union-timeline reference.
// ---------------------------------------------------------------------------

/// Independent oracle: walk the sorted union of all segment end times and
/// integrate the global signal span by span with direct scans.
LoadIntegrals brute_force_merge(
    const std::vector<std::vector<LoadSegment>>& logs, double epoch_start,
    std::size_t num_servers) {
  std::vector<double> breakpoints;
  for (const auto& log : logs) {
    for (const LoadSegment& seg : log) breakpoints.push_back(seg.end_time);
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());
  LoadIntegrals out;
  double t = epoch_start;
  for (const double next : breakpoints) {
    double sum = 0.0;
    double sumsq = 0.0;
    double max = 0.0;
    for (const auto& log : logs) {
      // The segment covering [t, next) is the first one ending after t.
      for (const LoadSegment& seg : log) {
        if (seg.end_time > t) {
          sum += seg.utilization_sum;
          sumsq += seg.utilization_sumsq;
          max = std::max(max, seg.max_utilization);
          break;
        }
      }
    }
    if (max <= 0.0) {
      sum = 0.0;
      sumsq = 0.0;
    }
    const double mean = sum / static_cast<double>(num_servers);
    double eq2 = 0.0;
    double cv = 0.0;
    if (mean > 0.0) {
      eq2 = std::max(0.0, (max - mean) / mean);
      cv = std::sqrt(std::max(0.0, sumsq / static_cast<double>(num_servers) -
                                       mean * mean)) /
           mean;
    }
    out.imbalance_eq2.add(eq2, next - t);
    out.imbalance_cv.add(cv, next - t);
    out.imbalance_capacity.add(std::max(0.0, max - mean), next - t);
    if (next > t) out.peak_eq2 = std::max(out.peak_eq2, eq2);
    t = next;
  }
  return out;
}

TEST(MetricsMerge, SweepMatchesBruteForceOnRandomSegmentStreams) {
  Rng rng(0x11115eed);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t shards = 1 + rng.uniform_index(5);
    const std::size_t num_servers = 2 + rng.uniform_index(10);
    const double epoch_end = 10.0 + rng.uniform(0.0, 50.0);
    std::vector<std::vector<LoadSegment>> logs(shards);
    for (auto& log : logs) {
      // Random strictly increasing end times, all streams ending exactly at
      // the epoch boundary (the engine's advance_to barrier guarantees it).
      const std::size_t segments = 1 + rng.uniform_index(12);
      std::vector<double> ends(segments - 1);
      for (double& e : ends) e = rng.uniform(0.1, epoch_end);
      std::sort(ends.begin(), ends.end());
      ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
      ends.push_back(epoch_end);
      for (const double end : ends) {
        LoadSegment seg;
        seg.end_time = end;
        if (rng.bernoulli(0.2)) {
          // Idle span: the engine's flush stores exact zeros.
          seg.utilization_sum = 0.0;
          seg.utilization_sumsq = 0.0;
          seg.max_utilization = 0.0;
        } else {
          seg.max_utilization = rng.uniform(0.05, 1.0);
          seg.utilization_sum = seg.max_utilization * rng.uniform(1.0, 3.0);
          seg.utilization_sumsq =
              seg.max_utilization * seg.max_utilization * rng.uniform(1.0, 2.0);
        }
        log.push_back(seg);
      }
    }
    LoadIntegrals merged;
    merge_load_segments(logs, 0.0, num_servers, merged);
    const LoadIntegrals reference =
        brute_force_merge(logs, 0.0, num_servers);
    EXPECT_NEAR(merged.imbalance_eq2.mean(), reference.imbalance_eq2.mean(),
                kFloatTol)
        << "trial " << trial;
    EXPECT_NEAR(merged.imbalance_cv.mean(), reference.imbalance_cv.mean(),
                kFloatTol);
    EXPECT_NEAR(merged.imbalance_capacity.mean(),
                reference.imbalance_capacity.mean(), kFloatTol);
    EXPECT_NEAR(merged.peak_eq2, reference.peak_eq2, kFloatTol);
    EXPECT_NEAR(merged.imbalance_eq2.total_time(), epoch_end, kFloatTol);
  }
}

TEST(MetricsMerge, HandBuiltStreamsIntegrateExactly) {
  // Two shards over a 4-server cluster; values chosen so the expected
  // integrals are exact in binary floating point.
  std::vector<std::vector<LoadSegment>> logs(2);
  logs[0] = {{1.0, 0.5, 0.25, 0.5},   // servers {0,1}: one at 0.5
             {3.0, 1.0, 0.5, 0.5},    // both at 0.5
             {4.0, 0.0, 0.0, 0.0}};   // idle (flushed zeros)
  logs[1] = {{2.0, 0.0, 0.0, 0.0},    // servers {2,3}: idle
             {4.0, 0.5, 0.25, 0.5}};  // one at 0.5
  LoadIntegrals merged;
  merge_load_segments(logs, 0.0, 4, merged);
  // Spans: [0,1) sum .5 max .5 -> eq2 = (0.5-0.125)/0.125 = 3
  //        [1,2) sum 1  max .5 -> eq2 = (0.5-0.25)/0.25  = 1
  //        [2,3) sum 1.5 max .5 -> eq2 = (0.5-0.375)/0.375 = 1/3
  //        [3,4) sum .5 max .5 -> eq2 = 3
  EXPECT_DOUBLE_EQ(merged.imbalance_eq2.mean(),
                   (3.0 + 1.0 + 1.0 / 3.0 + 3.0) / 4.0);
  EXPECT_DOUBLE_EQ(merged.peak_eq2, 3.0);
  EXPECT_DOUBLE_EQ(merged.imbalance_capacity.mean(),
                   (0.375 + 0.25 + 0.125 + 0.375) / 4.0);
  EXPECT_DOUBLE_EQ(merged.imbalance_eq2.total_time(), 4.0);
}

// ---------------------------------------------------------------------------
// Hand-built adversarial traces through the full sharded runner.
// ---------------------------------------------------------------------------

SimConfig two_server_config() {
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(8.0);  // two 4 Mbps streams each
  config.stream_bitrate_bps = units::mbps(4.0);
  config.video_duration_sec = 3.0;
  return config;
}

TEST(MetricsMerge, AdversarialTraceMatchesMonolithic) {
  // Videos 0/1 pinned to servers 0/1 (one per shard at S=2).  Simultaneous
  // cross-shard arrivals, an arrival exactly on the merge-epoch boundary,
  // departures that coincide across shards (t=1+3 and t=1+3), and enough
  // load to reject on server 0.
  const Layout layout{{0}, {1}};
  const SimConfig config = two_server_config();
  // Horizon 20: the first of the fixed horizon/8 merge boundaries is 2.5.
  RequestTrace trace;
  trace.horizon = 20.0;
  trace.requests = {
      {1.0, 0, 1.0}, {1.0, 1, 1.0},   // simultaneous, different shards
      {1.5, 0, 1.0},                  // fills server 0
      {2.5, 0, 1.0},                  // exactly on the epoch boundary: reject
      {2.5, 1, 1.0},                  // same instant, other shard: admitted
      {6.0, 0, 0.5}, {6.0, 1, 0.5},   // partial watches, coinciding departures
  };
  ASSERT_TRUE(trace.is_well_formed());

  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config);
  const SimResult mono = engine.run(policy, trace);
  EXPECT_EQ(mono.rejected, 1u);  // the t=2.5 request on the full server 0

  SimOptions options;
  options.num_shards = 2;  // the 2.5 boundary lands exactly on an arrival
  const SimResult sharded =
      simulate(ReplicatedPolicy(layout, config), trace, options);
  EXPECT_EQ(mono.total_requests, sharded.total_requests);
  EXPECT_EQ(mono.rejected, sharded.rejected);
  EXPECT_EQ(mono.rejected_by_reason, sharded.rejected_by_reason);
  EXPECT_EQ(mono.served_per_server, sharded.served_per_server);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(mono.utilization_per_server[s],
              sharded.utilization_per_server[s]);
  }
  EXPECT_NEAR(mono.mean_imbalance_eq2, sharded.mean_imbalance_eq2, kFloatTol);
  EXPECT_NEAR(mono.mean_imbalance_cv, sharded.mean_imbalance_cv, kFloatTol);
  EXPECT_NEAR(mono.peak_imbalance_eq2, sharded.peak_imbalance_eq2, kFloatTol);
}

TEST(MetricsMerge, CrashExactlyOnEpochBoundaryMatchesMonolithic) {
  const Layout layout{{0}, {1}};
  SimConfig config = two_server_config();
  config.failures = {{2.5, 0}};  // crash exactly on the boundary
  RequestTrace trace;
  trace.horizon = 20.0;  // the first merge boundary is 20/8 = 2.5
  trace.requests = {
      {1.0, 0, 1.0}, {1.0, 1, 1.0},
      {3.0, 0, 1.0},  // after the crash: kNoReplicaAlive
      {3.0, 1, 1.0},
  };
  ASSERT_TRUE(trace.is_well_formed());

  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config);
  const SimResult mono = engine.run(policy, trace);
  EXPECT_EQ(mono.disrupted, 1u);

  SimOptions options;
  options.num_shards = 2;
  const SimResult sharded =
      simulate(ReplicatedPolicy(layout, config), trace, options);
  EXPECT_EQ(mono.rejected, sharded.rejected);
  EXPECT_EQ(mono.rejected_by_reason, sharded.rejected_by_reason);
  EXPECT_EQ(mono.disrupted, sharded.disrupted);
  EXPECT_EQ(mono.served_per_server, sharded.served_per_server);
  EXPECT_NEAR(mono.mean_imbalance_eq2, sharded.mean_imbalance_eq2, kFloatTol);
}

}  // namespace
}  // namespace vodrep
