#include "src/core/best_fit_placement.h"

#include <gtest/gtest.h>

#include "src/core/adams_replication.h"
#include "src/core/objective.h"
#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(BestFitPlacement, ProducesValidLayouts) {
  const AdamsReplication adams;
  const BestFitPlacement bf;
  const auto popularity = zipf_popularity(40, 0.75);
  const auto plan = adams.replicate(popularity, 8, 64);
  const Layout layout = bf.place(plan, popularity, 8, 8);
  EXPECT_NO_THROW(layout.validate(plan, 8, 8));
}

TEST(BestFitPlacement, GreedyPicksLeastLoadedServer) {
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1};
  const auto popularity = normalized_popularity({0.5, 0.3, 0.2});
  const BestFitPlacement bf;
  const Layout layout = bf.place(plan, popularity, 2, 2);
  // v0 -> s0 (0.5); v1 -> s1 (0.3); v2 -> s1 (0.3 < 0.5).
  EXPECT_EQ(layout.host_lists(), (HostLists{{0}, {1}, {1}}));
}

TEST(BestFitPlacement, RespectsStorageCapacity) {
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1, 1};
  const auto popularity = uniform_popularity(4);
  const BestFitPlacement bf;
  const Layout layout = bf.place(plan, popularity, 2, 2);
  const auto counts = layout.replicas_per_server(2);
  EXPECT_LE(counts[0], 2u);
  EXPECT_LE(counts[1], 2u);
}

TEST(BestFitPlacement, TightDistinctnessInstanceIsPlaced) {
  // Capacity exactly one slot per server: a 2-replica video must use both
  // servers, which greedy achieves because the second replica excludes the
  // first's host.
  ReplicationPlan plan;
  plan.replicas = {2};
  const BestFitPlacement bf;
  const Layout layout = bf.place(plan, {1.0}, 2, 1);
  EXPECT_NO_THROW(layout.validate(plan, 2, 1));
}

TEST(BestFitPlacement, ComparableToSlfOnExpectedImbalance) {
  // Both are sensible balancers; neither should be wildly worse on the
  // paper's scenario (this is the E-series ablation sanity check).
  const AdamsReplication adams;
  const BestFitPlacement bf;
  const auto popularity = zipf_popularity(300, 0.75);
  const auto plan = adams.replicate(popularity, 8, 360);
  const auto loads =
      bf.place(plan, popularity, 8, 45).expected_loads(popularity, 8);
  EXPECT_LT(imbalance_max_relative(loads), 0.5);
}

}  // namespace
}  // namespace vodrep
