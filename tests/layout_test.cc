#include "src/core/layout.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/util/error.h"

namespace vodrep {
namespace {

Layout two_video_layout() { return {{0, 1}, {1}}; }

TEST(Layout, ReplicasPerServerCounts) {
  const Layout layout = two_video_layout();
  EXPECT_EQ(layout.replicas_per_server(3),
            (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Layout, ReplicasPerServerRejectsOutOfRange) {
  const Layout layout{{5}};
  EXPECT_THROW((void)layout.replicas_per_server(3), InvalidArgumentError);
}

TEST(Layout, ExpectedLoadsSplitWeightAcrossReplicas) {
  const Layout layout = two_video_layout();
  const std::vector<double> popularity{0.6, 0.4};
  const auto loads = layout.expected_loads(popularity, 3);
  EXPECT_DOUBLE_EQ(loads[0], 0.3);   // half of video 0
  EXPECT_DOUBLE_EQ(loads[1], 0.7);   // half of video 0 + all of video 1
  EXPECT_DOUBLE_EQ(loads[2], 0.0);
}

TEST(Layout, ExpectedLoadsSumToTotalPopularity) {
  const Layout layout = two_video_layout();
  const auto loads = layout.expected_loads({0.6, 0.4}, 2);
  EXPECT_NEAR(loads[0] + loads[1], 1.0, 1e-12);
}

TEST(Layout, ExpectedLoadsRejectBadInput) {
  Layout layout = two_video_layout();
  EXPECT_THROW((void)layout.expected_loads({1.0}, 3), InvalidArgumentError);
  HostLists hosts = layout.host_lists();
  hosts[1].clear();
  layout = Layout(hosts);
  EXPECT_THROW((void)layout.expected_loads({0.6, 0.4}, 3),
               InvalidArgumentError);
}

TEST(Layout, ImpliedPlanMatchesAssignment) {
  const Layout layout = two_video_layout();
  const ReplicationPlan plan = layout.implied_plan();
  EXPECT_EQ(plan.replicas, (std::vector<std::size_t>{2, 1}));
}

TEST(Layout, ValidateAcceptsConsistentLayout) {
  const Layout layout = two_video_layout();
  EXPECT_NO_THROW(layout.validate(layout.implied_plan(), 2, 2));
}

TEST(Layout, ValidateRejectsPlanMismatch) {
  const Layout layout = two_video_layout();
  ReplicationPlan plan;
  plan.replicas = {1, 1};
  EXPECT_THROW(layout.validate(plan, 2, 2), InvalidArgumentError);
}

TEST(Layout, ValidateRejectsDuplicateServers) {
  const Layout layout{{0, 0}};
  ReplicationPlan plan;
  plan.replicas = {2};
  EXPECT_THROW(layout.validate(plan, 2, 4), InvalidArgumentError);
}

TEST(Layout, ValidateRejectsOverCapacity) {
  const Layout layout{{0}, {0}, {0}};
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1};
  EXPECT_THROW(layout.validate(plan, 2, 2), InvalidArgumentError);
  EXPECT_NO_THROW(layout.validate(plan, 2, 3));
}

TEST(Layout, ValidateRejectsServerOutOfRange) {
  const Layout layout{{2}};
  ReplicationPlan plan;
  plan.replicas = {1};
  EXPECT_THROW(layout.validate(plan, 2, 2), InvalidArgumentError);
}

TEST(Layout, PacksHostListsIntoSlotArrays) {
  const Layout layout = two_video_layout();
  EXPECT_EQ(layout.num_videos(), 2u);
  EXPECT_EQ(layout.offsets, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(layout.servers, (std::vector<std::uint32_t>{0, 1, 1}));
  EXPECT_EQ(layout.replicas(0), 2u);
  EXPECT_EQ(layout.hosts(1).size(), 1u);
  EXPECT_EQ(layout.hosts(1)[0], 1u);
  EXPECT_EQ(layout.host_lists(), (HostLists{{0, 1}, {1}}));
  EXPECT_EQ(Layout(layout.host_lists()), layout);
}

TEST(Layout, EmptyLayoutHasNoVideos) {
  const Layout layout;
  EXPECT_EQ(layout.num_videos(), 0u);
  EXPECT_EQ(layout.offsets, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(layout.host_lists().empty());
}

TEST(Layout, WithSlotsSizesEveryVideoFromThePlan) {
  ReplicationPlan plan;
  plan.replicas = {2, 1, 3};
  const Layout layout = Layout::with_slots(plan);
  EXPECT_EQ(layout.offsets, (std::vector<std::uint64_t>{0, 2, 3, 6}));
  EXPECT_EQ(layout.servers.size(), 6u);
  EXPECT_EQ(layout.implied_plan().replicas, plan.replicas);
}

TEST(Layout, PackingKeepsInvalidIdsThatFitIn32Bits) {
  // Empty, duplicate and out-of-range lists pack verbatim for the auditor.
  const std::size_t max_id = std::numeric_limits<std::uint32_t>::max();
  const Layout layout{{}, {3, 3}, {max_id}};
  EXPECT_EQ(layout.host_lists(), (HostLists{{}, {3, 3}, {max_id}}));
}

TEST(Layout, PackingRejectsIdsBeyond32Bits) {
  // 2^32 + 1 would wrap to server 1.
  const std::size_t wrapping = (std::size_t{1} << 32) + 1;
  try {
    (void)Layout{{0}, {wrapping}};
    FAIL() << "a server id >= 2^32 packed";
  } catch (const InvalidArgumentError& error) {
    EXPECT_NE(std::string(error.what()).find("32 bits"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace vodrep
