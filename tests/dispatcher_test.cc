#include "src/sim/dispatcher.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

constexpr double kRate = 1e6;  // 1 Mb/s streams

Layout two_replica_layout() {
  const Layout layout{{0, 1}, {2}};
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

TEST(Dispatcher, StaticRoundRobinAlternatesReplicas) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0);
  auto servers = make_servers(3, 10 * kRate);
  const auto d1 = dispatcher.dispatch(0, kRate, servers);
  const auto d2 = dispatcher.dispatch(0, kRate, servers);
  const auto d3 = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d1 && d2 && d3);
  EXPECT_EQ(d1->server, 0u);
  EXPECT_EQ(d2->server, 1u);
  EXPECT_EQ(d3->server, 0u);
  EXPECT_FALSE(d1->redirected);
}

TEST(Dispatcher, SingleReplicaAlwaysSameServer) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0);
  auto servers = make_servers(3, 10 * kRate);
  for (int i = 0; i < 5; ++i) {
    const auto d = dispatcher.dispatch(1, kRate, servers);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->server, 2u);
  }
}

TEST(Dispatcher, RejectsWhenScheduledServerIsFull) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0);
  auto servers = make_servers(3, 2 * kRate);
  servers[0].admit(kRate);
  servers[0].admit(kRate);  // server 0 full
  // RR picks server 0 first -> reject even though server 1 is free.
  const auto d = dispatcher.dispatch(0, kRate, servers);
  EXPECT_FALSE(d.has_value());
  // Next RR pick is server 1 -> admitted.
  const auto d2 = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d2);
  EXPECT_EQ(d2->server, 1u);
}

TEST(Dispatcher, DispatchDecidesAndApplyReserves) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0);
  auto servers = make_servers(3, 10 * kRate);
  const auto d = dispatcher.dispatch(1, kRate, servers);
  ASSERT_TRUE(d);
  // dispatch() is decide-only: the binding reservation is the caller's.
  EXPECT_DOUBLE_EQ(servers[2].busy_bps(), 0.0);
  apply(d, servers, kRate);
  EXPECT_DOUBLE_EQ(servers[2].busy_bps(), kRate);
}

TEST(Dispatcher, OtherHoldersRedirectIsFree) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kOtherHolders, 0.0);
  auto servers = make_servers(3, 2 * kRate);
  servers[0].admit(kRate);
  servers[0].admit(kRate);  // RR target full
  const auto d = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->server, 1u);
  EXPECT_TRUE(d->redirected);
  EXPECT_FALSE(d->via_backbone);  // served from its own disk
  EXPECT_DOUBLE_EQ(dispatcher.backbone_busy_bps(), 0.0);
}

TEST(Dispatcher, OtherHoldersRejectsWhenAllHoldersFull) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kOtherHolders, 0.0);
  auto servers = make_servers(3, kRate);
  servers[0].admit(kRate);
  servers[1].admit(kRate);
  // Server 2 is idle, but it holds no replica of video 0 and level-1
  // redirection cannot use it.
  EXPECT_FALSE(dispatcher.dispatch(0, kRate, servers).has_value());
}

TEST(Dispatcher, OtherHoldersCannotServeSingleReplicaVideo) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kOtherHolders, 0.0);
  auto servers = make_servers(3, kRate);
  servers[2].admit(kRate);  // the only holder of video 1 is full
  EXPECT_FALSE(dispatcher.dispatch(1, kRate, servers).has_value());
}

TEST(Dispatcher, BackboneProxyUsesIdleNonHolder) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kBackboneProxy,
                        std::numeric_limits<double>::infinity());
  auto servers = make_servers(3, kRate);
  servers[0].admit(kRate);
  servers[1].admit(kRate);  // every holder of video 0 is full
  const auto d = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->server, 2u);
  EXPECT_TRUE(d->redirected);
  EXPECT_TRUE(d->via_backbone);
  EXPECT_DOUBLE_EQ(dispatcher.backbone_busy_bps(), kRate);
}

TEST(Dispatcher, BackboneProxyPrefersFreeHolderRedirect) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kBackboneProxy,
                        std::numeric_limits<double>::infinity());
  auto servers = make_servers(3, 2 * kRate);
  servers[0].admit(kRate);
  servers[0].admit(kRate);  // RR target full, co-holder 1 still has room
  const auto d = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->server, 1u);
  EXPECT_FALSE(d->via_backbone);  // no backbone needed for a holder detour
  EXPECT_DOUBLE_EQ(dispatcher.backbone_busy_bps(), 0.0);
}

TEST(Dispatcher, BackboneProxyRejectsWhenBackboneExhausted) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kBackboneProxy, /*backbone=*/0.0);
  auto servers = make_servers(3, kRate);
  servers[0].admit(kRate);
  servers[1].admit(kRate);
  EXPECT_FALSE(dispatcher.dispatch(0, kRate, servers).has_value());
}

TEST(Dispatcher, ReleaseBackboneFreesProxyBudget) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kBackboneProxy, kRate);
  auto servers = make_servers(3, 2 * kRate);
  servers[0].admit(kRate);
  servers[0].admit(kRate);
  servers[1].admit(kRate);
  servers[1].admit(kRate);  // both holders of video 0 full; server 2 idle
  const auto d1 = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d1 && d1->via_backbone);
  apply(d1, servers, kRate);
  EXPECT_DOUBLE_EQ(dispatcher.backbone_busy_bps(), kRate);
  // Backbone exhausted: the next proxy attempt fails despite idle capacity.
  EXPECT_FALSE(dispatcher.dispatch(0, kRate, servers).has_value());
  // The proxied stream finishes.
  servers[2].release(kRate);
  dispatcher.release_backbone(kRate);
  EXPECT_DOUBLE_EQ(dispatcher.backbone_busy_bps(), 0.0);
  const auto d3 = dispatcher.dispatch(0, kRate, servers);
  ASSERT_TRUE(d3 && d3->via_backbone);
  EXPECT_EQ(d3->server, 2u);
}

TEST(Dispatcher, RejectsOutOfRangeVideo) {
  const Layout layout = two_replica_layout();
  Dispatcher dispatcher(layout, RedirectMode::kNone, 0.0);
  auto servers = make_servers(3, 10 * kRate);
  EXPECT_THROW((void)dispatcher.dispatch(7, kRate, servers),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
