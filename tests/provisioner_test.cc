#include "src/online/provisioner.h"

#include <gtest/gtest.h>

#include "src/core/adams_replication.h"
#include "src/core/pipeline.h"
#include "src/core/slf_placement.h"
#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(ProvisionById, HotterIdGetsMoreReplicasRegardlessOfOrder) {
  // Popularity by id in scrambled order: id 2 is hottest.
  const std::vector<double> by_id{0.2, 0.1, 0.5, 0.2};
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const IdProvisioningResult result =
      provision_by_id(by_id, adams, slf, 3, 7, 3);
  EXPECT_GE(result.plan.replicas[2], result.plan.replicas[0]);
  EXPECT_GE(result.plan.replicas[2], result.plan.replicas[1]);
  EXPECT_GE(result.plan.replicas[2], result.plan.replicas[3]);
  EXPECT_EQ(result.plan.total_replicas(), 7u);
}

TEST(ProvisionById, MatchesRankSpaceProvisioningUpToPermutation) {
  const auto ranked = zipf_popularity(20, 0.75);
  // Scramble: id i holds the popularity of rank (i * 7) % 20.
  std::vector<double> by_id(20);
  std::vector<std::size_t> rank_of_id(20);
  for (std::size_t i = 0; i < 20; ++i) {
    rank_of_id[i] = (i * 7) % 20;
    by_id[i] = ranked[rank_of_id[i]];
  }
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const IdProvisioningResult scrambled =
      provision_by_id(by_id, adams, slf, 8, 28, 4);
  const ReplicationPlan direct = adams.replicate(ranked, 8, 28);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(scrambled.plan.replicas[i], direct.replicas[rank_of_id[i]])
        << "id " << i;
  }
}

TEST(ProvisionById, LayoutIsValidInIdSpace) {
  const std::vector<double> by_id{0.05, 0.3, 0.1, 0.25, 0.2, 0.1};
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const IdProvisioningResult result =
      provision_by_id(by_id, adams, slf, 4, 9, 3);
  EXPECT_NO_THROW(result.layout.validate(result.plan, 4, 3));
}

TEST(ProvisionById, AcceptsUnnormalizedWeights) {
  const std::vector<double> weights{10.0, 30.0, 60.0};
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const IdProvisioningResult result =
      provision_by_id(weights, adams, slf, 2, 4, 2);
  EXPECT_GE(result.plan.replicas[2], result.plan.replicas[0]);
}

TEST(ProvisionById, TiesBreakDeterministically) {
  const std::vector<double> by_id{0.25, 0.25, 0.25, 0.25};
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const IdProvisioningResult a = provision_by_id(by_id, adams, slf, 2, 6, 3);
  const IdProvisioningResult b = provision_by_id(by_id, adams, slf, 2, 6, 3);
  EXPECT_EQ(a.plan.replicas, b.plan.replicas);
  EXPECT_EQ(a.layout, b.layout);
}

TEST(ProvisionById, RejectsBadInput) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  EXPECT_THROW((void)provision_by_id({}, adams, slf, 2, 4, 2),
               InvalidArgumentError);
  EXPECT_THROW((void)provision_by_id({0.5, 0.0}, adams, slf, 2, 4, 2),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
