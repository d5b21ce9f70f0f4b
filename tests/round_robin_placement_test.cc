#include "src/core/round_robin_placement.h"

#include <gtest/gtest.h>

#include "src/core/adams_replication.h"
#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(RoundRobinPlacement, DealsCyclically) {
  ReplicationPlan plan;
  plan.replicas = {2, 1, 2};
  const auto popularity = normalized_popularity({3.0, 2.0, 2.0});
  const RoundRobinPlacement rr;
  const Layout layout = rr.place(plan, popularity, 3, 2);
  EXPECT_EQ(layout.host_lists(), (HostLists{{0, 1}, {2}, {0, 1}}));
}

TEST(RoundRobinPlacement, LayoutIsAlwaysValid) {
  const AdamsReplication adams;
  const RoundRobinPlacement rr;
  for (double theta : {0.25, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(50, theta);
    const auto plan = adams.replicate(popularity, 8, 80);
    const Layout layout = rr.place(plan, popularity, 8, 10);
    EXPECT_NO_THROW(layout.validate(plan, 8, 10)) << theta;
  }
}

TEST(RoundRobinPlacement, ServerCountsDifferByAtMostOne) {
  const AdamsReplication adams;
  const RoundRobinPlacement rr;
  const auto popularity = zipf_popularity(33, 0.75);
  const auto plan = adams.replicate(popularity, 8, 45);
  const Layout layout = rr.place(plan, popularity, 8, 6);
  const auto counts = layout.replicas_per_server(8);
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*max_it - *min_it, 1u);
}

TEST(RoundRobinPlacement, OptimalForEqualWeights) {
  // All weights equal -> perfectly balanced expected loads.
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1, 1};
  const auto popularity = uniform_popularity(4);
  const RoundRobinPlacement rr;
  const Layout layout = rr.place(plan, popularity, 4, 1);
  const auto loads = layout.expected_loads(popularity, 4);
  for (double l : loads) EXPECT_DOUBLE_EQ(l, 0.25);
}

TEST(RoundRobinPlacement, RejectsOversizedPlan) {
  ReplicationPlan plan;
  plan.replicas = {2, 2};
  const RoundRobinPlacement rr;
  EXPECT_THROW((void)rr.place(plan, {0.5, 0.5}, 2, 1), InfeasibleError);
}

TEST(RoundRobinPlacement, RejectsPlanViolatingServerCap) {
  ReplicationPlan plan;
  plan.replicas = {3};
  const RoundRobinPlacement rr;
  EXPECT_THROW((void)rr.place(plan, {1.0}, 2, 4), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
