#include "src/sim/hybrid_policy.h"

#include <gtest/gtest.h>

#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

constexpr double kRate = units::mbps(4);

SimConfig config_of(std::size_t servers, double capacity,
                    double duration = 1000.0) {
  SimConfig config;
  config.num_servers = servers;
  config.bandwidth_bps_per_server = capacity;
  config.stream_bitrate_bps = kRate;
  config.video_duration_sec = duration;
  return config;
}

RequestTrace trace_of(std::vector<Request> requests, double horizon) {
  RequestTrace trace;
  trace.requests = std::move(requests);
  trace.horizon = horizon;
  return trace;
}

TEST(MakeHybridLayout, DisjointGroupsPerVideo) {
  const HybridLayout layout = make_hybrid_layout(5, 8, 2, 2);
  EXPECT_NO_THROW(layout.validate(8));
  for (const auto& copies : layout.groups) {
    ASSERT_EQ(copies.size(), 2u);
    for (const auto& group : copies) EXPECT_EQ(group.size(), 2u);
  }
}

TEST(MakeHybridLayout, RejectsFootprintBeyondCluster) {
  EXPECT_THROW((void)make_hybrid_layout(5, 8, 4, 3), InvalidArgumentError);
  EXPECT_THROW((void)make_hybrid_layout(5, 8, 0, 2), InvalidArgumentError);
}

TEST(HybridLayoutValidate, CatchesOverlappingCopies) {
  HybridLayout layout;
  layout.groups = {{{0, 1}, {1, 2}}};  // copies share server 1
  EXPECT_THROW(layout.validate(4), InvalidArgumentError);
}

TEST(HybridSimulator, RoundRobinAcrossGroupCopies) {
  // One video, two disjoint 2-wide groups over 4 servers.
  const HybridLayout layout = make_hybrid_layout(1, 4, 2, 2);
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(Request{static_cast<double>(i), 0});
  }
  const SimResult result = simulate(
      HybridPolicy(layout, config_of(4, 100 * kRate)),
      trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 0u);
  // RR alternates the two copies: each server participates in two streams.
  for (std::size_t served : result.served_per_server) EXPECT_EQ(served, 2u);
}

TEST(HybridSimulator, FailureKillsOnlyTheTouchedCopy) {
  const HybridLayout layout = make_hybrid_layout(1, 4, 2, 2);
  SimConfig config = config_of(4, 100 * kRate);
  config.failures = {ServerFailure{5.0, 0}};  // server 0 is in copy 0
  // Two streams, one per copy, both started before the crash.
  std::vector<Request> requests{Request{0.0, 0}, Request{1.0, 0}};
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_EQ(result.disrupted, 1u);  // only the copy-0 stream dies
}

TEST(HybridSimulator, VideoSurvivesViaOtherCopy) {
  const HybridLayout layout = make_hybrid_layout(1, 4, 2, 2);
  SimConfig config = config_of(4, 100 * kRate);
  config.failures = {ServerFailure{5.0, 0}};
  // After the crash: RR still rotates over both copies, so every second
  // request (the ones scheduled on the dead copy) is rejected, the rest
  // are served — unlike pure striping where the video would be gone.
  std::vector<Request> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Request{10.0 + i, 0});
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 3u);
}

TEST(HybridSimulator, SharesAccountedOnAllGroupMembers) {
  const HybridLayout layout = make_hybrid_layout(1, 4, 2, 2);
  // Group width 2: a stream draws kRate/2 per member; capacity kRate/2
  // means one stream per copy.
  SimConfig config = config_of(4, kRate / 2);
  std::vector<Request> requests{Request{0.0, 0}, Request{1.0, 0},
                                Request{2.0, 0}};
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  // Stream 1 -> copy 0, stream 2 -> copy 1, stream 3 -> copy 0 again: full.
  EXPECT_EQ(result.rejected, 1u);
}

TEST(HybridSimulator, DegeneratesToReplicationWhenWidthIsOne) {
  // k = 1, r = 2 behaves like a 2-replica video under static RR.
  const HybridLayout layout = make_hybrid_layout(1, 4, 1, 2);
  SimConfig config = config_of(4, kRate);
  std::vector<Request> requests{Request{0.0, 0}, Request{1.0, 0},
                                Request{2.0, 0}};
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 1u);  // two servers hold one stream each
}

TEST(HybridSimulator, RejectsMalformedInput) {
  const HybridLayout layout = make_hybrid_layout(1, 4, 2, 2);
  EXPECT_THROW((void)simulate(HybridPolicy(layout, config_of(4, kRate)),
                                     trace_of({Request{1.0, 5}}, 50.0)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
