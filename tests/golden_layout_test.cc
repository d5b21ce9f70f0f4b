// Golden layouts: 64-bit fingerprints of the layouts the fixed-rate planners
// produce, recorded before the planners' fast paths (threshold-selection
// Adams, run-merge group order) replaced the heap greedy and the stable
// sort.  Every simulated and reported number downstream is a function of
// these layouts, so a planning change that moves any of them fails here
// instead of moving the benchmark's results silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/adams_replication.h"
#include "src/core/best_fit_placement.h"
#include "src/core/slf_placement.h"
#include "src/hetero/hetero_placement.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

/// FNV-1a over 64-bit words.
struct Fingerprint {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t word) { hash = (hash ^ word) * 1099511628211ULL; }
};

/// Each video's replica count, then its servers in order.
std::uint64_t fingerprint(const Layout& layout) {
  Fingerprint f;
  for (const auto& servers : layout.assignment) {
    f.mix(servers.size());
    for (std::size_t s : servers) f.mix(s);
  }
  return f.hash;
}

/// A layout's fingerprint, or a fixed word when placement finds no
/// feasible server, so a verdict change is caught too.
std::uint64_t fingerprint_of(const std::function<Layout()>& place) {
  try {
    return fingerprint(place());
  } catch (const InfeasibleError&) {
    return 0x1dea5ULL;
  }
}

/// Adams + SLF at one of the benchmark's shapes: Zipf 0.75, `degree` x M
/// replicas, ceil(budget / N) slots per server.
std::uint64_t adams_slf(std::size_t videos, std::size_t servers,
                        double degree) {
  const std::vector<double> popularity = zipf_popularity(videos, 0.75);
  const auto budget =
      static_cast<std::size_t>(degree * static_cast<double>(videos));
  const std::size_t capacity = (budget + servers - 1) / servers;
  const ReplicationPlan plan =
      AdamsReplication().replicate(popularity, servers, budget);
  return fingerprint(SmallestLoadFirstPlacement().place(plan, popularity,
                                                        servers, capacity));
}

TEST(GoldenLayout, PaperWeekShape) {
  EXPECT_EQ(adams_slf(300, 8, 1.2), 0x18fc62def627b767ULL);
}

TEST(GoldenLayout, SimMonthShape) {
  EXPECT_EQ(adams_slf(10'000, 64, 1.2), 0xfba82885fe4218e9ULL);
}

TEST(GoldenLayout, Catalog1mShape) {
  EXPECT_EQ(adams_slf(1'000'000, 256, 1.2), 0xaa116df244a10c55ULL);
}

TEST(GoldenLayout, GreedyPlacementsOnManyRunPlans) {
  // Replica counts drawn apart from a tie-heavy popularity vector, so the
  // weights w_i = p_i / r_i rise often and tie across runs: the group
  // order merges many runs.
  Rng rng(2306);
  Fingerprint slf;
  Fingerprint best_fit;
  Fingerprint hetero;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 50 + rng.uniform_index(400);
    const std::size_t n = 2 + rng.uniform_index(30);
    std::vector<double> weights(m);
    for (double& w : weights) w = static_cast<double>(1 + rng.uniform_index(20));
    const std::vector<double> popularity =
        normalized_popularity(std::move(weights));
    ReplicationPlan plan;
    plan.replicas.resize(m);
    for (std::size_t& r : plan.replicas) r = 1 + rng.uniform_index(n);
    const std::size_t capacity =
        (plan.total_replicas() + n - 1) / n + rng.uniform_index(3);
    std::vector<double> bandwidth(n);
    std::vector<std::size_t> slots(n);
    for (std::size_t s = 0; s < n; ++s) {
      bandwidth[s] = static_cast<double>(1 + rng.uniform_index(3)) * 1e9;
      slots[s] = capacity + rng.uniform_index(2);
    }
    slf.mix(fingerprint_of([&] {
      return SmallestLoadFirstPlacement().place(plan, popularity, n, capacity);
    }));
    best_fit.mix(fingerprint_of(
        [&] { return BestFitPlacement().place(plan, popularity, n, capacity); }));
    hetero.mix(fingerprint_of([&] {
      return weighted_greedy_place(plan, popularity, bandwidth, slots);
    }));
  }
  EXPECT_EQ(slf.hash, 0x2308c8a68dea6882ULL);
  EXPECT_EQ(best_fit.hash, 0xcceedb37c31dba53ULL);
  EXPECT_EQ(hetero.hash, 0x9d5ddbaccd1ecd3bULL);
}

}  // namespace
}  // namespace vodrep
