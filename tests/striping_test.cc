#include "src/core/striping.h"

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

/// Stripe groups each server belongs to (the striped layout has one copy).
std::vector<std::size_t> groups_per_server(const HybridLayout& layout,
                                           std::size_t num_servers) {
  std::vector<std::size_t> counts(num_servers, 0);
  for (const auto& copies : layout.groups) {
    for (std::size_t s : copies[0]) ++counts[s];
  }
  return counts;
}

/// Storage on each server: a video of `video_bytes` striped over k servers
/// stores video_bytes / k per member.
std::vector<double> storage_per_server(const HybridLayout& layout,
                                       std::size_t num_servers,
                                       double video_bytes) {
  std::vector<double> storage(num_servers, 0.0);
  for (const auto& copies : layout.groups) {
    const double share = video_bytes / static_cast<double>(copies[0].size());
    for (std::size_t s : copies[0]) storage[s] += share;
  }
  return storage;
}

TEST(MakeStripedLayout, WideStripingUsesEveryServer) {
  const HybridLayout layout = make_striped_layout(5, 4, 4);
  for (const auto& copies : layout.groups) {
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].size(), 4u);
  }
  EXPECT_NO_THROW(layout.validate(4));
}

TEST(MakeStripedLayout, StaggersGroupsAcrossServers) {
  const HybridLayout layout = make_striped_layout(4, 8, 2);
  EXPECT_EQ(layout.groups[0][0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(layout.groups[1][0], (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(layout.groups[2][0], (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(layout.groups[3][0], (std::vector<std::size_t>{6, 7}));
}

TEST(MakeStripedLayout, BalancedStripeCountPerServer) {
  const HybridLayout layout = make_striped_layout(16, 8, 2);
  const auto counts = groups_per_server(layout, 8);
  for (std::size_t c : counts) EXPECT_EQ(c, 4u);
}

TEST(MakeStripedLayout, WidthOneDegeneratesToWholeVideoPlacement) {
  const HybridLayout layout = make_striped_layout(6, 3, 1);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(layout.groups[i].size(), 1u);
    ASSERT_EQ(layout.groups[i][0].size(), 1u);
  }
  EXPECT_NO_THROW(layout.validate(3));
}

TEST(MakeStripedLayout, RejectsBadWidth) {
  EXPECT_THROW((void)make_striped_layout(4, 3, 0), InvalidArgumentError);
  EXPECT_THROW((void)make_striped_layout(4, 3, 4), InvalidArgumentError);
}

TEST(StripedLayout, ValidateCatchesViolations) {
  // One-copy stripe groups, as make_striped_layout builds them.
  HybridLayout layout;
  layout.groups = {{{0, 0}}};
  EXPECT_THROW(layout.validate(3), InvalidArgumentError);  // duplicate
  layout.groups = {{{5}}};
  EXPECT_THROW(layout.validate(3), InvalidArgumentError);  // out of range
  layout.groups = {{{}}};
  EXPECT_THROW(layout.validate(3), InvalidArgumentError);  // empty
}

TEST(StripedStorage, SplitsVideoAcrossGroup) {
  const HybridLayout layout = make_striped_layout(4, 4, 2);
  const auto storage = storage_per_server(layout, 4, units::gigabytes(2.7));
  // 4 videos * 2 servers each over 4 servers, staggered: each server holds
  // two half-videos = 2.7 GB.
  for (double bytes : storage) {
    EXPECT_NEAR(units::to_gigabytes(bytes), 2.7, 1e-9);
  }
}

TEST(StripedStorage, WideStripingUsesExactlyOneCatalogue) {
  const HybridLayout layout = make_striped_layout(10, 5, 5);
  const auto storage = storage_per_server(layout, 5, units::gigabytes(2.7));
  double total = 0.0;
  for (double bytes : storage) total += bytes;
  EXPECT_NEAR(units::to_gigabytes(total), 27.0, 1e-9);
}

TEST(Availability, StripingDecaysWithWidth) {
  const double p = 0.95;
  EXPECT_GT(striped_video_availability(p, 1),
            striped_video_availability(p, 4));
  EXPECT_GT(striped_video_availability(p, 4),
            striped_video_availability(p, 8));
  EXPECT_NEAR(striped_video_availability(p, 2), 0.9025, 1e-12);
}

TEST(Availability, ReplicationImprovesWithReplicas) {
  const double p = 0.95;
  EXPECT_LT(replicated_video_availability(p, 1),
            replicated_video_availability(p, 2));
  EXPECT_NEAR(replicated_video_availability(p, 2), 0.9975, 1e-12);
}

TEST(Availability, SingleCopyIsTheCommonBaseline) {
  // k = 1 striping and r = 1 replication are the same physical layout.
  for (double p : {0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(striped_video_availability(p, 1),
                     replicated_video_availability(p, 1));
  }
}

TEST(Availability, TwoReplicasBeatAnyStripeWidth) {
  for (double p : {0.90, 0.95, 0.99}) {
    for (std::size_t k = 1; k <= 8; ++k) {
      EXPECT_GT(replicated_video_availability(p, 2),
                striped_video_availability(p, k) - 1e-12);
    }
  }
}

TEST(Availability, HybridDegeneratesToPureCases) {
  for (double p : {0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(hybrid_video_availability(p, 1, 3),
                     replicated_video_availability(p, 3));
    EXPECT_DOUBLE_EQ(hybrid_video_availability(p, 4, 1),
                     striped_video_availability(p, 4));
  }
}

TEST(Availability, HybridKnownValue) {
  // p = 0.9, k = 2 -> group alive 0.81; r = 2 -> 1 - 0.19^2 = 0.9639.
  EXPECT_NEAR(hybrid_video_availability(0.9, 2, 2), 0.9639, 1e-12);
}

TEST(Availability, ReplicatingGroupsRecoversStripingLoss) {
  // Two replicas of 4-wide groups beat single-copy whole-video placement
  // at realistic survival rates.
  for (double p : {0.95, 0.99}) {
    EXPECT_GT(hybrid_video_availability(p, 4, 2),
              replicated_video_availability(p, 1));
  }
}

TEST(Availability, RejectsBadArguments) {
  EXPECT_THROW((void)striped_video_availability(1.5, 2),
               InvalidArgumentError);
  EXPECT_THROW((void)striped_video_availability(0.9, 0),
               InvalidArgumentError);
  EXPECT_THROW((void)replicated_video_availability(-0.1, 2),
               InvalidArgumentError);
  EXPECT_THROW((void)replicated_video_availability(0.9, 0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
