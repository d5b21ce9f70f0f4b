#include "src/workload/sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

/// The textbook construction the sampler's in-place one must reproduce:
/// a normalized copy, a scaled copy, and separate small and large stacks.
struct ReferenceTables {
  std::vector<double> prob;
  std::vector<std::size_t> alias;
};

ReferenceTables reference_tables(const std::vector<double>& probabilities) {
  double sum = 0.0;
  for (double p : probabilities) sum += p;
  const std::size_t n = probabilities.size();
  std::vector<double> normalized(n);
  for (std::size_t i = 0; i < n; ++i) normalized[i] = probabilities[i] / sum;
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalized[i] * static_cast<double>(n);
  }
  ReferenceTables tables;
  tables.prob.assign(n, 1.0);
  tables.alias.resize(n);
  for (std::size_t i = 0; i < n; ++i) tables.alias[i] = i;
  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    tables.prob[s] = scaled[s];
    tables.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  return tables;
}

/// The sampler's tables equal the reference bit for bit, and so do 200,000
/// draws against the reference's sampling rule on the same stream.
void expect_reference_tables(const std::vector<double>& probabilities) {
  const DiscreteSampler sampler(probabilities);
  const ReferenceTables reference = reference_tables(probabilities);
  ASSERT_EQ(sampler.size(), reference.prob.size());
  for (std::size_t i = 0; i < sampler.size(); ++i) {
    ASSERT_EQ(sampler.thresholds()[i], reference.prob[i]) << "bucket " << i;
    ASSERT_EQ(sampler.aliases()[i], reference.alias[i]) << "bucket " << i;
  }
  Rng a(11);
  Rng b(11);
  for (int k = 0; k < 200000; ++k) {
    const auto bucket = static_cast<std::size_t>(
        b.uniform_index(static_cast<std::uint64_t>(reference.prob.size())));
    const std::size_t expected =
        b.uniform() < reference.prob[bucket] ? bucket : reference.alias[bucket];
    ASSERT_EQ(sampler.sample(a), expected) << "draw " << k;
  }
}

TEST(DiscreteSampler, TablesMatchReferenceConstruction) {
  expect_reference_tables(zipf_popularity(100'000, 0.75));
  expect_reference_tables(zipf_popularity(1000, 1.2));
  expect_reference_tables(std::vector<double>(4096, 1.0));
  expect_reference_tables({1.0, 0.0, 3.0, 0.0, 0.0, 2.0});
  expect_reference_tables({5.0});
  std::vector<double> ties(3000);
  Rng rng(12);
  for (double& p : ties) p = static_cast<double>(rng.uniform_index(4));
  ties[17] = 1.0;
  expect_reference_tables(ties);
}

TEST(DiscreteSampler, ProbabilityReadsBackFromTables) {
  const auto p = zipf_popularity(500, 0.75);
  const DiscreteSampler sampler(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(sampler.probability(i), p[i], 1e-12) << "i=" << i;
  }
  const DiscreteSampler zeros({0.0, 2.0, 0.0, 2.0});
  EXPECT_EQ(zeros.probability(0), 0.0);
  EXPECT_NEAR(zeros.probability(1), 0.5, 1e-15);
}

TEST(DiscreteSampler, NormalizesInput) {
  const DiscreteSampler sampler({2.0, 6.0});
  EXPECT_NEAR(sampler.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.75, 1e-12);
}

TEST(DiscreteSampler, RejectsDegenerateInput) {
  EXPECT_THROW(DiscreteSampler({}), InvalidArgumentError);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), InvalidArgumentError);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), InvalidArgumentError);
}

TEST(DiscreteSampler, SingleOutcomeAlwaysSampled) {
  const DiscreteSampler sampler({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroProbabilityOutcomeNeverSampled) {
  const DiscreteSampler sampler({1.0, 0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(DiscreteSampler, EmpiricalFrequenciesMatch) {
  const std::vector<double> p{0.5, 0.3, 0.15, 0.05};
  const DiscreteSampler sampler(p);
  Rng rng(3);
  std::vector<int> counts(p.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, p[i], 0.01) << "i=" << i;
  }
}

TEST(DiscreteSampler, ZipfFrequenciesMatch) {
  const auto p = zipf_popularity(50, 0.75);
  const DiscreteSampler sampler(p);
  Rng rng(4);
  std::vector<int> counts(p.size(), 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  // Check head and a mid-tail entry.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, p[0], 0.005);
  EXPECT_NEAR(static_cast<double>(counts[9]) / n, p[9], 0.005);
}

TEST(DiscreteSampler, DeterministicGivenSeed) {
  const auto p = zipf_popularity(10, 0.5);
  const DiscreteSampler sampler(p);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(a), sampler.sample(b));
}

TEST(DiscreteSampler, ProbabilityOutOfRangeThrows) {
  const DiscreteSampler sampler({1.0, 1.0});
  EXPECT_THROW((void)sampler.probability(2), InvalidArgumentError);
}

TEST(DiscreteSampler, LargeUniformDistributionCoversRange) {
  const DiscreteSampler sampler(std::vector<double>(1000, 1.0));
  Rng rng(8);
  std::size_t max_seen = 0;
  for (int i = 0; i < 50000; ++i) {
    max_seen = std::max(max_seen, sampler.sample(rng));
  }
  EXPECT_GT(max_seen, 990u);
}

}  // namespace
}  // namespace vodrep
