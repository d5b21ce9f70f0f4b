#include "src/online/migration.h"

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

TEST(PlanMigration, IdenticalLayoutsNeedNothing) {
  const Layout layout{{0, 1}, {2}};
  const MigrationPlan plan = plan_migration(layout, layout);
  EXPECT_TRUE(plan.copies.empty());
  EXPECT_EQ(plan.deletions, 0u);
}

TEST(PlanMigration, DetectsAddedReplicas) {
  const Layout from{{0}, {2}};
  const Layout to{{0, 1}, {2}};
  const MigrationPlan plan = plan_migration(from, to);
  ASSERT_EQ(plan.copies.size(), 1u);
  EXPECT_EQ(plan.copies[0].video, 0u);
  EXPECT_EQ(plan.copies[0].to_server, 1u);
  EXPECT_EQ(plan.deletions, 0u);
}

TEST(PlanMigration, DetectsRemovedReplicas) {
  const Layout from{{0, 1}, {2}};
  const Layout to{{0}, {2}};
  const MigrationPlan plan = plan_migration(from, to);
  EXPECT_TRUE(plan.copies.empty());
  EXPECT_EQ(plan.deletions, 1u);
}

TEST(PlanMigration, MoveIsOneCopyPlusOneDeletion) {
  const Layout from{{0}};
  const Layout to{{3}};
  const MigrationPlan plan = plan_migration(from, to);
  ASSERT_EQ(plan.copies.size(), 1u);
  EXPECT_EQ(plan.copies[0].to_server, 3u);
  EXPECT_EQ(plan.deletions, 1u);
}

TEST(PlanMigration, OrderWithinAVideoDoesNotMatter) {
  const Layout from{{0, 1, 2}};
  const Layout to{{2, 0, 1}};
  const MigrationPlan plan = plan_migration(from, to);
  EXPECT_TRUE(plan.copies.empty());
  EXPECT_EQ(plan.deletions, 0u);
}

TEST(PlanMigration, RejectsMismatchedVideoSets) {
  const Layout from{{0}};
  const Layout to{{0}, {1}};
  EXPECT_THROW((void)plan_migration(from, to), InvalidArgumentError);
}

TEST(MigrationPlan, BytesAndCopyTime) {
  MigrationPlan plan;
  plan.copies = {ReplicaCopy{0, 1}, ReplicaCopy{2, 3}};
  // Two copies of a 2.7 GB replica.
  const double replica = units::gigabytes(2.7);
  EXPECT_NEAR(units::to_gigabytes(plan.bytes_moved(replica)), 5.4, 1e-9);
  // Over a 1.8 Gb/s backbone: 5.4e9 * 8 / 1.8e9 = 24 seconds.
  EXPECT_NEAR(plan.copy_time_sec(replica, units::gbps(1.8)), 24.0, 1e-9);
  EXPECT_THROW((void)plan.copy_time_sec(replica, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
