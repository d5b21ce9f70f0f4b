#include "src/workload/arrivals.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/util/error.h"
#include "src/util/stats.h"

namespace vodrep {
namespace {

TEST(PoissonArrivals, TimesAreSortedWithinHorizon) {
  Rng rng(1);
  const auto times = poisson_arrivals(rng, 2.0, 100.0);
  ASSERT_FALSE(times.empty());
  double prev = 0.0;
  for (double t : times) {
    EXPECT_GE(t, prev);
    EXPECT_LT(t, 100.0);
    prev = t;
  }
}

TEST(PoissonArrivals, CountMatchesRateTimesHorizon) {
  Rng rng(2);
  OnlineStats counts;
  for (int i = 0; i < 200; ++i) {
    counts.add(static_cast<double>(poisson_arrivals(rng, 5.0, 50.0).size()));
  }
  // Expected count = 250, stddev ~ sqrt(250) ~ 15.8; 200 replications give a
  // tight mean.
  EXPECT_NEAR(counts.mean(), 250.0, 5.0);
}

TEST(PoissonArrivals, InterarrivalsAreExponential) {
  Rng rng(3);
  const double rate = 4.0;
  const auto times = poisson_arrivals(rng, rate, 10000.0);
  OnlineStats gaps;
  for (std::size_t i = 1; i < times.size(); ++i) {
    gaps.add(times[i] - times[i - 1]);
  }
  EXPECT_NEAR(gaps.mean(), 1.0 / rate, 0.02);
  // Exponential: stddev == mean.
  EXPECT_NEAR(gaps.stddev(), 1.0 / rate, 0.02);
}

TEST(PoissonArrivals, ZeroRateOrHorizonYieldsNothing) {
  Rng rng(4);
  EXPECT_TRUE(poisson_arrivals(rng, 0.0, 100.0).empty());
  EXPECT_TRUE(poisson_arrivals(rng, 5.0, 0.0).empty());
}

TEST(PoissonArrivals, RejectsNegativeArguments) {
  Rng rng(5);
  EXPECT_THROW((void)poisson_arrivals(rng, -1.0, 10.0), InvalidArgumentError);
  EXPECT_THROW((void)poisson_arrivals(rng, 1.0, -10.0), InvalidArgumentError);
}

TEST(PoissonArrivals, RejectsInfiniteRateOrHorizon) {
  // An infinite rate makes every gap 0 and an infinite horizon never ends;
  // both generators must refuse them rather than grow without bound.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  EXPECT_THROW((void)poisson_arrivals(rng, kInf, 10.0), InvalidArgumentError);
  EXPECT_THROW((void)poisson_arrivals(rng, 1.0, kInf), InvalidArgumentError);
  EXPECT_THROW((void)poisson_arrivals_block(rng, kInf, 10.0, 64),
               InvalidArgumentError);
  EXPECT_THROW((void)poisson_arrivals_block(rng, 1.0, kInf, 64),
               InvalidArgumentError);
}

TEST(PoissonArrivals, RejectsExpectedCountsAboveTheCap) {
  // A finite but huge rate would make gaps of about 1/rate and a reserve
  // cast past SIZE_MAX; both generators must refuse it before either, and
  // without drawing from the generator.
  const double just_over = std::nextafter(
      kMaxExpectedArrivals, std::numeric_limits<double>::infinity());
  for (const auto& [rate, horizon] :
       {std::pair{1e300, 10.0}, std::pair{just_over, 1.0},
        std::pair{1.0, just_over}}) {
    Rng rng(8);
    const Rng before = rng;
    EXPECT_THROW((void)poisson_arrivals(rng, rate, horizon),
                 InvalidArgumentError)
        << rate << " x " << horizon;
    EXPECT_THROW((void)poisson_arrivals_block(rng, rate, horizon, 64),
                 InvalidArgumentError)
        << rate << " x " << horizon;
    Rng untouched = before;
    EXPECT_EQ(rng.next_u64(), untouched.next_u64());
  }
  Rng rng(9);
  try {
    (void)poisson_arrivals_block(rng, 1e300, 10.0, 64);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& error) {
    EXPECT_NE(std::string(error.what()).find("kMaxExpectedArrivals"),
              std::string::npos)
        << error.what();
  }
}

TEST(PoissonArrivals, DeterministicGivenSeed) {
  Rng a(6);
  Rng b(6);
  EXPECT_EQ(poisson_arrivals(a, 3.0, 100.0), poisson_arrivals(b, 3.0, 100.0));
}

TEST(UniformArrivals, ExactCountAndSpacing) {
  const auto times = uniform_arrivals(2.0, 10.0);
  ASSERT_EQ(times.size(), 20u);
  EXPECT_DOUBLE_EQ(times[0], 0.25);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_NEAR(times[i] - times[i - 1], 0.5, 1e-12);
  }
  EXPECT_LT(times.back(), 10.0);
}

TEST(UniformArrivals, ZeroRateYieldsNothing) {
  EXPECT_TRUE(uniform_arrivals(0.0, 100.0).empty());
}

TEST(UniformArrivals, RejectsNegativeArguments) {
  EXPECT_THROW((void)uniform_arrivals(-1.0, 10.0), InvalidArgumentError);
  EXPECT_THROW((void)uniform_arrivals(1.0, -1.0), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
