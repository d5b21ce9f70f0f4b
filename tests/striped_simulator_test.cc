// The striped organization (one-copy stripe groups, make_striped_layout)
// replayed through HybridPolicy.
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

TEST(StripedSimulator, AdmitsAndSplitsShares) {
  const HybridLayout layout = make_striped_layout(1, 4, 4);
  const SimResult result =
      simulate(HybridPolicy(layout, config_of(4, 2 * kRate)),
                       trace_of({Request{1.0, 0}}, 50.0));
  EXPECT_EQ(result.rejected, 0u);
  // Every server participated in the single stream.
  for (std::size_t served : result.served_per_server) EXPECT_EQ(served, 1u);
}

TEST(StripedSimulator, WideStripingPoolsClusterBandwidth) {
  // 2 servers of 2-stream capacity: striped k=2 admits 4 concurrent
  // streams of ANY video mix — no placement can reject below the pooled
  // capacity.
  const HybridLayout layout = make_striped_layout(3, 2, 2);
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(Request{static_cast<double>(i), static_cast<std::size_t>(i % 3)});
  }
  requests.push_back(Request{10.0, 0});  // fifth concurrent stream
  const SimResult result = simulate(
      HybridPolicy(layout, config_of(2, 2 * kRate)), trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 1u);
}

TEST(StripedSimulator, PerfectBalanceUnderWideStriping) {
  const HybridLayout layout = make_striped_layout(5, 4, 4);
  std::vector<Request> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(Request{static_cast<double>(i),
                               static_cast<std::size_t>(i % 5)});
  }
  const SimResult result = simulate(
      HybridPolicy(layout, config_of(4, 100 * kRate)),
      trace_of(requests, 50.0));
  EXPECT_NEAR(result.mean_imbalance_eq2, 0.0, 1e-9);
  EXPECT_NEAR(result.peak_imbalance_eq2, 0.0, 1e-9);
}

TEST(StripedSimulator, DeparturesFreeAllShares) {
  const HybridLayout layout = make_striped_layout(1, 2, 2);
  // Duration 10: both capacity slots cycle.
  SimConfig config = config_of(2, kRate, 10.0);
  const SimResult result = simulate(
      HybridPolicy(layout, config),
      trace_of({Request{0.0, 0}, Request{1.0, 0}, Request{20.0, 0}}, 50.0));
  // Capacity is kRate per server, shares kRate/2: two concurrent fit.
  EXPECT_EQ(result.rejected, 0u);
}

TEST(StripedSimulator, FailureKillsEveryCoupledStream) {
  const HybridLayout layout = make_striped_layout(2, 4, 4);
  SimConfig config = config_of(4, 100 * kRate);
  config.failures = {ServerFailure{5.0, 2}};
  std::vector<Request> requests{Request{0.0, 0}, Request{1.0, 1},
                                Request{2.0, 0}};
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  // Wide striping: every active stream touches server 2.
  EXPECT_EQ(result.disrupted, 3u);
}

TEST(StripedSimulator, FailureMakesCoupledVideosUnavailable) {
  const HybridLayout layout = make_striped_layout(2, 4, 2);
  // groups: video 0 -> {0,1}, video 1 -> {2,3}.
  SimConfig config = config_of(4, 100 * kRate);
  config.failures = {ServerFailure{5.0, 0}};
  std::vector<Request> requests{Request{10.0, 0}, Request{11.0, 1}};
  const SimResult result =
      simulate(HybridPolicy(layout, config), trace_of(requests, 50.0));
  // Video 0 is unavailable after the crash; video 1 unaffected.
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.disrupted, 0u);
}

TEST(StripedSimulator, NarrowStripingLimitsFailureBlastRadius) {
  const std::size_t n = 4;
  SimConfig config = config_of(n, 100 * kRate);
  config.failures = {ServerFailure{5.0, 0}};
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Request{0.1 * i, static_cast<std::size_t>(i % 8)});
  }
  const SimResult wide = simulate(
      HybridPolicy(make_striped_layout(8, n, n), config),
      trace_of(requests, 50.0));
  const SimResult narrow = simulate(
      HybridPolicy(make_striped_layout(8, n, 2), config),
      trace_of(requests, 50.0));
  EXPECT_GT(wide.disrupted, narrow.disrupted);
}

TEST(StripedSimulator, RejectsMalformedInput) {
  const HybridLayout layout = make_striped_layout(1, 2, 2);
  RequestTrace bad = trace_of({Request{5.0, 0}, Request{1.0, 0}}, 50.0);
  EXPECT_THROW((void)simulate(HybridPolicy(layout, config_of(2, kRate)), bad),
               InvalidArgumentError);
  RequestTrace out_of_range = trace_of({Request{1.0, 7}}, 50.0);
  EXPECT_THROW(
      (void)simulate(HybridPolicy(layout, config_of(2, kRate)), out_of_range),
      InvalidArgumentError);
}

TEST(StripedSimulator, UtilizationAccountsShares) {
  const HybridLayout layout = make_striped_layout(1, 2, 2);
  // One stream of duration 10 over a 40-unit window, share kRate/2 on each
  // of two servers with capacity 2*kRate: utilization = (kRate/2 * 10) /
  // (2*kRate * 40) = 0.0625.
  SimConfig config = config_of(2, 2 * kRate, 10.0);
  const SimResult result = simulate(
      HybridPolicy(layout, config), trace_of({Request{0.0, 0}}, 40.0));
  EXPECT_NEAR(result.utilization_per_server[0], 0.0625, 1e-9);
  EXPECT_NEAR(result.utilization_per_server[1], 0.0625, 1e-9);
}

}  // namespace
}  // namespace vodrep
