#include <gtest/gtest.h>

#include "src/sim/dispatcher.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

constexpr double kRate = units::mbps(4);

Layout single_video_layout() {
  const Layout layout{{0}};
  return layout;
}

std::vector<StreamingServer> make_servers(std::size_t n, double capacity) {
  return std::vector<StreamingServer>(n, StreamingServer(capacity));
}

/// Applies a decide-only dispatch decision to the fleet, as the simulation
/// engine does in production (dispatch() itself never mutates servers).
void apply(const std::optional<DispatchDecision>& d,
           std::vector<StreamingServer>& servers, double bitrate_bps) {
  if (d && d->reserves_bandwidth()) servers[d->server].admit(bitrate_bps);
}

TEST(Batching, JoinWithinWindowUsesNoBandwidth) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0,
                        /*window=*/60.0, /*duration=*/1000.0);
  auto servers = make_servers(1, 2 * kRate);
  const auto first = dispatcher.dispatch(0, kRate, servers, 0.0);
  ASSERT_TRUE(first && !first->batched);
  apply(first, servers, kRate);
  const auto second = dispatcher.dispatch(0, kRate, servers, 30.0);
  ASSERT_TRUE(second);
  EXPECT_TRUE(second->batched);
  EXPECT_EQ(second->server, 0u);
  apply(second, servers, kRate);
  EXPECT_DOUBLE_EQ(servers[0].busy_bps(), kRate);  // only the first stream
}

TEST(Batching, MissesWindowOpensNewStream) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0);
  auto servers = make_servers(1, 2 * kRate);
  apply(dispatcher.dispatch(0, kRate, servers, 0.0), servers, kRate);
  const auto late = dispatcher.dispatch(0, kRate, servers, 61.0);
  ASSERT_TRUE(late);
  EXPECT_FALSE(late->batched);
  apply(late, servers, kRate);
  EXPECT_DOUBLE_EQ(servers[0].busy_bps(), 2 * kRate);
}

TEST(Batching, NewStreamResetsTheWindow) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0);
  auto servers = make_servers(1, 3 * kRate);
  (void)dispatcher.dispatch(0, kRate, servers, 0.0);     // stream A
  (void)dispatcher.dispatch(0, kRate, servers, 100.0);   // stream B (new)
  const auto join = dispatcher.dispatch(0, kRate, servers, 150.0);
  ASSERT_TRUE(join);
  EXPECT_TRUE(join->batched);  // joins B, 50s old
}

TEST(Batching, EndedStreamIsNotJoinable) {
  const Layout layout = single_video_layout();
  // Window longer than the stream itself: joinability must stop at the
  // stream's end, not the window's.
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, /*window=*/500.0,
                        /*duration=*/100.0);
  auto servers = make_servers(1, 2 * kRate);
  (void)dispatcher.dispatch(0, kRate, servers, 0.0);
  const auto after_end = dispatcher.dispatch(0, kRate, servers, 150.0);
  ASSERT_TRUE(after_end);
  EXPECT_FALSE(after_end->batched);
}

TEST(Batching, DifferentVideosDoNotShare) {
  const Layout layout{{0}, {0}};
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0);
  auto servers = make_servers(1, 3 * kRate);
  (void)dispatcher.dispatch(0, kRate, servers, 0.0);
  const auto other = dispatcher.dispatch(1, kRate, servers, 10.0);
  ASSERT_TRUE(other);
  EXPECT_FALSE(other->batched);
}

TEST(Batching, PerReplicaSharing) {
  // Two replicas: RR alternates; a join only happens on the scheduled
  // replica's own stream.
  const Layout layout{{0, 1}};
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0);
  auto servers = make_servers(2, 3 * kRate);
  const auto r1 = dispatcher.dispatch(0, kRate, servers, 0.0);   // server 0
  const auto r2 = dispatcher.dispatch(0, kRate, servers, 1.0);   // server 1
  const auto r3 = dispatcher.dispatch(0, kRate, servers, 2.0);   // joins s0
  const auto r4 = dispatcher.dispatch(0, kRate, servers, 3.0);   // joins s1
  ASSERT_TRUE(r1 && r2 && r3 && r4);
  EXPECT_FALSE(r1->batched);
  EXPECT_FALSE(r2->batched);
  EXPECT_TRUE(r3->batched);
  EXPECT_TRUE(r4->batched);
  EXPECT_EQ(r3->server, 0u);
  EXPECT_EQ(r4->server, 1u);
}

TEST(Batching, FailedServerStreamsNotJoinable) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 600.0, 1000.0);
  auto servers = make_servers(1, 2 * kRate);
  (void)dispatcher.dispatch(0, kRate, servers, 0.0);
  (void)servers[0].fail();
  dispatcher.on_server_failed(0);
  EXPECT_FALSE(dispatcher.dispatch(0, kRate, servers, 10.0).has_value());
}

TEST(Batching, SimulatorCountsBatchedAndRejectsNothingShareable) {
  const Layout layout{{0}};
  SimConfig config;
  config.num_servers = 1;
  config.bandwidth_bps_per_server = kRate;  // one stream max
  config.stream_bitrate_bps = kRate;
  config.video_duration_sec = 1000.0;
  config.batching_window_sec = 300.0;
  RequestTrace trace;
  trace.horizon = 200.0;
  for (int i = 0; i < 10; ++i) {
    trace.requests.push_back(Request{10.0 * i, 0});
  }
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.batched, 9u);  // one real stream, nine joins
  EXPECT_EQ(result.served_per_server[0], 1u);
}

TEST(Batching, DisabledWindowNeverBatches) {
  const Layout layout{{0}};
  SimConfig config;
  config.num_servers = 1;
  config.bandwidth_bps_per_server = kRate;
  config.stream_bitrate_bps = kRate;
  config.video_duration_sec = 1000.0;
  RequestTrace trace;
  trace.horizon = 100.0;
  trace.requests = {Request{0.0, 0}, Request{1.0, 0}};
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.batched, 0u);
  EXPECT_EQ(result.rejected, 1u);
}

TEST(Batching, WiderWindowNeverIncreasesRejections) {
  const Layout layout{{0}, {1}};
  SimConfig narrow;
  narrow.num_servers = 2;
  narrow.bandwidth_bps_per_server = 3 * kRate;
  narrow.stream_bitrate_bps = kRate;
  narrow.video_duration_sec = 500.0;
  narrow.batching_window_sec = 10.0;
  SimConfig wide = narrow;
  wide.batching_window_sec = 120.0;
  RequestTrace trace;
  trace.horizon = 400.0;
  for (int i = 0; i < 30; ++i) {
    trace.requests.push_back(
        Request{13.0 * i, static_cast<std::size_t>(i % 2)});
  }
  const SimResult r_narrow = simulate(ReplicatedPolicy(layout, narrow), trace);
  const SimResult r_wide = simulate(ReplicatedPolicy(layout, wide), trace);
  EXPECT_LE(r_wide.rejected, r_narrow.rejected);
  EXPECT_GE(r_wide.batched, r_narrow.batched);
}

TEST(Patching, JoinPaysTheMissedPrefix) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0,
                        BatchingMode::kPatching);
  auto servers = make_servers(1, 3 * kRate);
  apply(dispatcher.dispatch(0, kRate, servers, 0.0), servers, kRate);
  const auto join = dispatcher.dispatch(0, kRate, servers, 30.0);
  ASSERT_TRUE(join);
  EXPECT_TRUE(join->batched);
  EXPECT_DOUBLE_EQ(join->patch_duration_sec, 30.0);
  apply(join, servers, kRate);
  // The patch stream holds bandwidth on top of the base stream.
  EXPECT_DOUBLE_EQ(servers[0].busy_bps(), 2 * kRate);
}

TEST(Patching, SimultaneousJoinIsFree) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0,
                        BatchingMode::kPatching);
  auto servers = make_servers(1, 2 * kRate);
  apply(dispatcher.dispatch(0, kRate, servers, 5.0), servers, kRate);
  const auto join = dispatcher.dispatch(0, kRate, servers, 5.0);
  ASSERT_TRUE(join);
  EXPECT_TRUE(join->batched);
  EXPECT_DOUBLE_EQ(join->patch_duration_sec, 0.0);
  apply(join, servers, kRate);  // a zero-length patch reserves nothing
  EXPECT_DOUBLE_EQ(servers[0].busy_bps(), kRate);
}

TEST(Patching, FullServerCannotPatch) {
  const Layout layout = single_video_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0, 60.0, 1000.0,
                        BatchingMode::kPatching);
  auto servers = make_servers(1, kRate);  // room for the base stream only
  apply(dispatcher.dispatch(0, kRate, servers, 0.0), servers, kRate);
  // The patch needs bandwidth the server does not have; with no redirect
  // mode the request is rejected outright.
  EXPECT_FALSE(dispatcher.dispatch(0, kRate, servers, 30.0).has_value());
}

TEST(Patching, SimulatorReleasesPatchAfterPrefix) {
  const Layout layout{{0}};
  SimConfig config;
  config.num_servers = 1;
  config.bandwidth_bps_per_server = 2 * kRate;
  config.stream_bitrate_bps = kRate;
  config.video_duration_sec = 1000.0;
  config.batching_window_sec = 100.0;
  config.batching_mode = BatchingMode::kPatching;
  RequestTrace trace;
  trace.horizon = 200.0;
  // Base stream at t=0; join at t=20 patches for 20 s (releases at 40);
  // a third join at t=50 patches for 50 s and must fit — it would not if
  // the first patch still held its slot.
  trace.requests = {Request{0.0, 0}, Request{20.0, 0}, Request{50.0, 0}};
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.batched, 2u);
}

TEST(Patching, CostsSitBetweenNoBatchingAndPiggyback) {
  const Layout layout{{0}};
  SimConfig base;
  base.num_servers = 1;
  base.bandwidth_bps_per_server = 3 * kRate;
  base.stream_bitrate_bps = kRate;
  base.video_duration_sec = 300.0;
  RequestTrace trace;
  trace.horizon = 280.0;
  for (int i = 0; i < 14; ++i) {
    trace.requests.push_back(Request{20.0 * i, 0});
  }
  SimConfig piggy = base;
  piggy.batching_window_sec = 120.0;
  SimConfig patch = piggy;
  patch.batching_mode = BatchingMode::kPatching;
  const SimResult none = simulate(ReplicatedPolicy(layout, base), trace);
  const SimResult piggyback = simulate(ReplicatedPolicy(layout, piggy), trace);
  const SimResult patching = simulate(ReplicatedPolicy(layout, patch), trace);
  EXPECT_LE(piggyback.rejected, patching.rejected);
  EXPECT_LE(patching.rejected, none.rejected);
}

TEST(Batching, DispatcherRejectsInvalidConfiguration) {
  const Layout layout = single_video_layout();
  EXPECT_THROW(Dispatcher(layout, RedirectMode::kNone, 0.0, -1.0, 100.0),
               InvalidArgumentError);
  EXPECT_THROW(Dispatcher(layout, RedirectMode::kNone, 0.0, 10.0, 0.0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
