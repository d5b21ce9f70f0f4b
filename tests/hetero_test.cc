#include "src/hetero/hetero_cluster.h"
#include "src/hetero/hetero_placement.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"

#include <gtest/gtest.h>

#include "src/core/adams_replication.h"
#include "src/core/best_fit_placement.h"
#include "src/core/slf_placement.h"
#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(HeteroClusterSpec, AggregatesAndShares) {
  const HeteroClusterSpec cluster = make_two_tier_cluster(
      2, units::gbps(2.0), units::gigabytes(100), 2, units::gbps(1.0),
      units::gigabytes(50));
  EXPECT_EQ(cluster.num_servers(), 4u);
  EXPECT_DOUBLE_EQ(cluster.total_bandwidth_bps(), units::gbps(6.0));
  EXPECT_DOUBLE_EQ(cluster.total_storage_bytes(), units::gigabytes(300));
  const auto shares = cluster.bandwidth_shares();
  EXPECT_NEAR(shares[0], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(shares[3], 1.0 / 6.0, 1e-12);
}

TEST(HeteroClusterSpec, ReplicaSlotsPerServer) {
  const HeteroClusterSpec cluster = make_two_tier_cluster(
      1, units::gbps(2.0), units::gigabytes(27), 1, units::gbps(1.0),
      units::gigabytes(5.5));
  const auto slots = cluster.replica_slots(units::minutes(90), units::mbps(4));
  EXPECT_EQ(slots[0], 10u);  // 27 / 2.7
  EXPECT_EQ(slots[1], 2u);   // floor(5.5 / 2.7)
}

TEST(HeteroClusterSpec, ValidateCatchesBadInput) {
  HeteroClusterSpec cluster;
  EXPECT_THROW(cluster.validate(), InvalidArgumentError);
  cluster.bandwidth_bps = {1.0, 2.0};
  cluster.storage_bytes = {1.0};
  EXPECT_THROW(cluster.validate(), InvalidArgumentError);
  cluster.storage_bytes = {1.0, -1.0};
  EXPECT_THROW(cluster.validate(), InvalidArgumentError);
}

TEST(HeteroImbalance, ProportionalLoadIsBalanced) {
  // Loads proportional to bandwidth -> equal utilization -> L = 0.
  EXPECT_NEAR(hetero_imbalance({2.0, 1.0}, {4.0, 2.0}), 0.0, 1e-12);
}

TEST(HeteroImbalance, EqualAbsoluteLoadIsImbalancedOnMixedFleet) {
  // Equal loads on a 2:1 fleet overdrive the small server.
  EXPECT_GT(hetero_imbalance({1.0, 1.0}, {4.0, 2.0}), 0.2);
}

TEST(HeteroImbalance, MatchesEq2OnHomogeneousFleet) {
  const std::vector<double> loads{3.0, 1.0};
  EXPECT_DOUBLE_EQ(hetero_imbalance(loads, {2.0, 2.0}), 0.5);
}

TEST(WeightedSlfPlace, ProducesValidLayout) {
  const auto popularity = zipf_popularity(30, 0.75);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, 4, 42);
  const std::vector<double> bandwidth{2.0, 2.0, 1.0, 1.0};
  const std::vector<std::size_t> slots{14, 14, 7, 7};
  const Layout layout = weighted_greedy_place(plan, popularity, bandwidth, slots);
  const auto counts = layout.replicas_per_server(4);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_LE(counts[s], slots[s]);
  // Every video's replicas on distinct servers.
  for (const auto& servers : layout.host_lists()) {
    std::vector<std::size_t> sorted = servers;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(WeightedSlfPlace, FasterServersAttractMoreLoad) {
  const auto popularity = zipf_popularity(60, 0.75);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, 4, 80);
  const std::vector<double> bandwidth{3.0, 3.0, 1.0, 1.0};
  const std::vector<std::size_t> slots{30, 30, 30, 30};
  const Layout layout = weighted_greedy_place(plan, popularity, bandwidth, slots);
  const auto loads = layout.expected_loads(popularity, 4);
  // Big servers carry roughly 3x the small servers' expected load.
  EXPECT_GT(loads[0] + loads[1], 2.0 * (loads[2] + loads[3]));
  EXPECT_LT(hetero_imbalance(loads, bandwidth), 0.25);
}

TEST(WeightedSlfPlace, BeatsBlindSlfOnUtilizationImbalance) {
  const auto popularity = zipf_popularity(120, 0.75);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, 4, 160);
  const std::vector<double> bandwidth{3.0, 3.0, 1.0, 1.0};
  const std::vector<std::size_t> slots{60, 60, 60, 60};
  const Layout weighted =
      weighted_greedy_place(plan, popularity, bandwidth, slots);
  const SmallestLoadFirstPlacement slf;
  const Layout blind = slf.place(plan, popularity, 4, 60);
  EXPECT_LT(hetero_imbalance(weighted.expected_loads(popularity, 4), bandwidth),
            hetero_imbalance(blind.expected_loads(popularity, 4), bandwidth));
}

TEST(WeightedSlfPlace, DegeneratesToBestFitOnEqualFleet) {
  // With equal bandwidths the post-placement-utilization rule picks exactly
  // the least-loaded feasible server — greedy best-fit.
  const auto popularity = zipf_popularity(40, 0.75);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, 4, 56);
  const std::vector<double> bandwidth(4, 1.8e9);
  const std::vector<std::size_t> slots(4, 14);
  const Layout weighted =
      weighted_greedy_place(plan, popularity, bandwidth, slots);
  const BestFitPlacement best_fit;
  const Layout homogeneous = best_fit.place(plan, popularity, 4, 14);
  EXPECT_EQ(weighted, homogeneous);
}

TEST(WeightedSlfPlace, ThrowsWhenPlanDoesNotFit) {
  const auto popularity = zipf_popularity(10, 0.75);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, 4, 20);
  const std::vector<double> bandwidth{1.0, 1.0, 1.0, 1.0};
  const std::vector<std::size_t> slots{4, 4, 4, 4};  // 16 < 20
  EXPECT_THROW(
      (void)weighted_greedy_place(plan, popularity, bandwidth, slots),
      InfeasibleError);
}

TEST(HeteroSimulator, PerServerBandwidthHonored) {
  const Layout layout{{0}, {1}};
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(8);
  config.per_server_bandwidth_bps = {units::mbps(8), units::mbps(4)};
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 1000.0;
  RequestTrace trace;
  trace.horizon = 50.0;
  // Two concurrent streams per video: fits server 0 (8 Mb/s), overflows
  // server 1 (4 Mb/s).
  trace.requests = {Request{0.0, 0}, Request{1.0, 0}, Request{2.0, 1},
                    Request{3.0, 1}};
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.served_per_server[0], 2u);
  EXPECT_EQ(result.served_per_server[1], 1u);
}

TEST(HeteroSimulator, ImbalanceUsesUtilization) {
  // One stream on each server; server 1 has half the capacity, so its
  // utilization doubles and Eq. 2 over utilizations is positive.
  const Layout layout{{0}, {1}};
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(8);
  config.per_server_bandwidth_bps = {units::mbps(8), units::mbps(4)};
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 1000.0;
  RequestTrace trace;
  trace.horizon = 50.0;
  trace.requests = {Request{0.0, 0}, Request{0.0, 1}};
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  // Utilizations 0.5 and 1.0: Eq. 2 = (1.0 - 0.75) / 0.75 = 1/3.
  EXPECT_NEAR(result.mean_imbalance_eq2, 1.0 / 3.0, 1e-9);
}

TEST(HeteroSimulator, ConfigValidatesOverrideVector) {
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(8);
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 10.0;
  config.per_server_bandwidth_bps = {units::mbps(8)};  // wrong size
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config.per_server_bandwidth_bps = {units::mbps(8), 0.0};
  EXPECT_THROW(config.validate(), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
