#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/error.h"
#include "src/util/rng.h"

namespace vodrep {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(OnlineStats, SingleObservation) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(1);
  OnlineStats whole;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats s;
  s.add(1.0);
  s.add(2.0);
  OnlineStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);

  OnlineStats target;
  target.merge(s);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(OnlineStats, Ci95ShrinksWithSampleSize) {
  Rng rng(2);
  OnlineStats small;
  OnlineStats large;
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(OnlineStats, Ci95UsesStudentTAtNMinusOneDegrees) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) s.add(x);
  const double standard_error = s.stddev() / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), student_t975(4) * standard_error);
  // At five runs the margin is 42% wider than the normal 1.96 one.
  EXPECT_NEAR(s.ci95_halfwidth() / (1.96 * standard_error), 1.4166, 1e-4);
}

TEST(StudentT975, MatchesExactQuantilesAndFallsToTheNormalValue) {
  // Exact 97.5% quantiles, from the regularized incomplete beta function.
  EXPECT_DOUBLE_EQ(student_t975(1), 12.706204736174694);
  EXPECT_NEAR(student_t975(4), 2.7764451051977943, 1e-12);
  EXPECT_NEAR(student_t975(19), 2.0930240544083087, 1e-12);
  EXPECT_NEAR(student_t975(30), 2.0422724563012364, 1e-12);
  // Past the table, the expansion.
  EXPECT_NEAR(student_t975(31), 2.039513446396408, 3e-8);
  EXPECT_NEAR(student_t975(50), 2.008559112100759, 3e-9);
  EXPECT_NEAR(student_t975(100), 1.9839715185235387, 1e-10);
  for (std::size_t df = 1; df < 200; ++df) {
    EXPECT_GT(student_t975(df), student_t975(df + 1)) << df;
  }
  EXPECT_NEAR(student_t975(1'000'000'000), 1.959963984540054, 1e-8);
  EXPECT_THROW((void)student_t975(0), InvalidArgumentError);
}

TEST(TimeWeightedMean, ConstantSignal) {
  TimeWeightedMean twm;
  twm.add(4.0, 10.0);
  EXPECT_DOUBLE_EQ(twm.mean(), 4.0);
  EXPECT_DOUBLE_EQ(twm.total_time(), 10.0);
}

TEST(TimeWeightedMean, WeightsByDuration) {
  TimeWeightedMean twm;
  twm.add(0.0, 3.0);
  twm.add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(twm.mean(), 2.5);
}

TEST(TimeWeightedMean, IgnoresNonPositiveDurations) {
  TimeWeightedMean twm;
  twm.add(100.0, 0.0);
  twm.add(100.0, -1.0);
  EXPECT_DOUBLE_EQ(twm.mean(), 0.0);
  twm.add(5.0, 2.0);
  EXPECT_DOUBLE_EQ(twm.mean(), 5.0);
}

TEST(Quantile, MedianOfOddSize) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  // Type-7 quantile of {1,2,3,4} at q=0.5 is 2.5.
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(Quantile, ExtremesAreMinAndMax) {
  const std::vector<double> v{5.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW((void)quantile({}, 0.5), InvalidArgumentError);
  EXPECT_THROW((void)quantile({1.0}, 1.5), InvalidArgumentError);
  EXPECT_THROW((void)quantile({1.0}, -0.1), InvalidArgumentError);
}

TEST(MeanOf, ComputesArithmeticMean) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_THROW((void)mean_of({}), InvalidArgumentError);
}

TEST(StddevOf, MatchesOnlineStats) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  OnlineStats s;
  for (double x : v) s.add(x);
  EXPECT_NEAR(stddev_of(v), s.stddev(), 1e-12);
  EXPECT_EQ(stddev_of({1.0}), 0.0);
}

}  // namespace
}  // namespace vodrep
