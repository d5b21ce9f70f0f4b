#include "src/online/incremental_placement.h"

#include <gtest/gtest.h>

#include "src/core/adams_replication.h"
#include "src/core/objective.h"
#include "src/core/slf_placement.h"
#include "src/online/migration.h"
#include "src/online/provisioner.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

ReplicationPlan plan_of(std::vector<std::size_t> replicas) {
  ReplicationPlan plan;
  plan.replicas = std::move(replicas);
  return plan;
}

TEST(IncrementalPlace, SamePlanMeansZeroMigration) {
  const Layout previous{{0, 1}, {2}, {3}};
  const auto plan = plan_of({2, 1, 1});
  const std::vector<double> pop{0.5, 0.3, 0.2};
  const Layout next = incremental_place(previous, plan, pop, 4, 2);
  const MigrationPlan migration = plan_migration(previous, next);
  EXPECT_TRUE(migration.copies.empty());
  EXPECT_EQ(migration.deletions, 0u);
}

TEST(IncrementalPlace, AddsOnlyTheNewReplicas) {
  const Layout previous{{0}, {1}};
  const auto plan = plan_of({2, 1});  // video 0 gains one replica
  const std::vector<double> pop{0.7, 0.3};
  const Layout next = incremental_place(previous, plan, pop, 3, 2);
  const MigrationPlan migration = plan_migration(previous, next);
  EXPECT_EQ(migration.copies.size(), 1u);
  EXPECT_EQ(migration.copies[0].video, 0u);
  EXPECT_NO_THROW(next.validate(plan, 3, 2));
}

TEST(IncrementalPlace, DropsExcessFromMostLoadedHost) {
  // Video 0 on {0, 1}; video 1 (heavy) also on server 0, making server 0
  // the loaded one.  Shrinking video 0 to one replica must drop its copy on
  // server 0.
  const Layout previous{{0, 1}, {0}};
  const auto plan = plan_of({1, 1});
  const std::vector<double> pop{0.3, 0.7};
  const Layout next = incremental_place(previous, plan, pop, 2, 2);
  EXPECT_EQ(next.host_lists()[0], (std::vector<std::size_t>{1}));
  const MigrationPlan migration = plan_migration(previous, next);
  EXPECT_TRUE(migration.copies.empty());
  EXPECT_EQ(migration.deletions, 1u);
}

TEST(IncrementalPlace, EvictsWhenCapacityShrinks) {
  // Three replicas on server 0, capacity now 2: one must move.
  const Layout previous{{0}, {0}, {0}};
  const auto plan = plan_of({1, 1, 1});
  const std::vector<double> pop{0.5, 0.3, 0.2};
  const Layout next = incremental_place(previous, plan, pop, 2, 2);
  EXPECT_NO_THROW(next.validate(plan, 2, 2));
  const MigrationPlan migration = plan_migration(previous, next);
  EXPECT_EQ(migration.copies.size(), 1u);
  // The lightest replica (video 2) is the one moved.
  EXPECT_EQ(migration.copies[0].video, 2u);
}

TEST(IncrementalPlace, ResultAlwaysValidOnRandomChurn) {
  Rng rng(0x14C0);
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 10 + rng.uniform_index(40);
    const std::size_t n = 3 + rng.uniform_index(6);
    std::vector<double> pop(m);
    for (double& p : pop) p = rng.uniform(0.01, 1.0);
    const std::size_t budget1 = m + rng.uniform_index(m);
    const std::size_t budget2 = m + rng.uniform_index(m);
    const std::size_t capacity =
        (std::max(budget1, budget2) + n - 1) / n + 1;
    const IdProvisioningResult initial =
        provision_by_id(pop, adams, slf, n, budget1, capacity);
    // Perturb the popularity and re-plan.
    std::vector<double> pop2 = pop;
    for (double& p : pop2) p *= rng.uniform(0.5, 2.0);
    const ReplicationPlan plan2 = replicate_by_id(pop2, adams, n, budget2);
    const Layout next =
        incremental_place(initial.layout, plan2, pop2, n, capacity);
    ASSERT_NO_THROW(next.validate(plan2, n, capacity)) << "trial " << trial;
  }
}

TEST(IncrementalPlace, FarCheaperThanFromScratchOnSmallPerturbation) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto pop = zipf_popularity(100, 0.75);
  const IdProvisioningResult initial =
      provision_by_id(pop, adams, slf, 8, 120, 16);
  // Tiny perturbation: two mid-list videos swap popularity.
  std::vector<double> pop2 = pop;
  std::swap(pop2[30], pop2[31]);
  const ReplicationPlan plan2 = replicate_by_id(pop2, adams, 8, 120);
  const Layout incremental =
      incremental_place(initial.layout, plan2, pop2, 8, 16);
  const IdProvisioningResult scratch =
      provision_by_id(pop2, adams, slf, 8, 120, 16);
  const std::size_t inc_copies =
      plan_migration(initial.layout, incremental).copies.size();
  const std::size_t scratch_copies =
      plan_migration(initial.layout, scratch.layout).copies.size();
  EXPECT_LE(inc_copies, 4u);
  EXPECT_LT(inc_copies, scratch_copies);
}

TEST(IncrementalPlace, BalanceStaysReasonable) {
  // The migration savings must not come at a catastrophic balance cost.
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto pop = zipf_popularity(100, 0.75);
  const IdProvisioningResult initial =
      provision_by_id(pop, adams, slf, 8, 120, 16);
  std::vector<double> pop2 = pop;
  Rng rng(5);
  rng.shuffle(pop2);
  const ReplicationPlan plan2 = replicate_by_id(pop2, adams, 8, 120);
  const Layout next = incremental_place(initial.layout, plan2, pop2, 8, 16);
  const auto loads = next.expected_loads(
      [&] {
        // expected_loads wants rank-normalized popularity by id.
        std::vector<double> normalized = pop2;
        double sum = 0.0;
        for (double p : normalized) sum += p;
        for (double& p : normalized) p /= sum;
        return normalized;
      }(),
      8);
  EXPECT_LT(imbalance_max_relative(loads), 0.6);
}

TEST(IncrementalPlace, RejectsInfeasiblePlan) {
  const Layout previous{{0}};
  const auto plan = plan_of({3});
  EXPECT_THROW(
      (void)incremental_place(previous, plan, {1.0}, 2, 4),
      InvalidArgumentError);  // r_i > N
  const auto plan2 = plan_of({2});
  EXPECT_THROW((void)incremental_place(previous, plan2, {1.0}, 2, 0),
               InfeasibleError);  // no storage at all
}

}  // namespace
}  // namespace vodrep
