// Golden layouts: 64-bit fingerprints of the layouts the fixed-rate planners
// produce, recorded before the planners' fast paths (threshold-selection
// Adams, run-merge group order) replaced the heap greedy and the stable
// sort.  The round-robin, id-space, incremental-replan and save/load cases
// were recorded while layouts were still one vector per video, before the
// flat slot arrays replaced them.  Every simulated and reported number
// downstream is a function of these layouts, so a planning change that
// moves any of them fails here instead of moving the benchmark's results
// silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/adams_replication.h"
#include "src/core/best_fit_placement.h"
#include "src/core/layout_io.h"
#include "src/core/round_robin_placement.h"
#include "src/core/slf_placement.h"
#include "src/hetero/hetero_placement.h"
#include "src/online/controller.h"
#include "src/online/provisioner.h"
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
  for (std::size_t i = 0; i < layout.num_videos(); ++i) {
    f.mix(layout.replicas(i));
    for (const std::uint32_t s : layout.hosts(i)) f.mix(s);
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

/// A benchmark shape: Zipf 0.75, `degree` x M replicas, ceil(budget / N)
/// slots per server.
struct Shape {
  Shape(std::size_t videos, std::size_t servers_in, double degree)
      : popularity(zipf_popularity(videos, 0.75)),
        servers(servers_in),
        budget(static_cast<std::size_t>(degree *
                                        static_cast<double>(videos))),
        capacity((budget + servers - 1) / servers) {}

  std::vector<double> popularity;
  std::size_t servers;
  std::size_t budget;
  std::size_t capacity;
};

/// Adams + `placement` at one of the benchmark's shapes.
Layout adams_place(const PlacementPolicy& placement, const Shape& shape) {
  const ReplicationPlan plan = AdamsReplication().replicate(
      shape.popularity, shape.servers, shape.budget);
  return placement.place(plan, shape.popularity, shape.servers,
                         shape.capacity);
}

std::uint64_t adams_slf(std::size_t videos, std::size_t servers,
                        double degree) {
  return fingerprint(adams_place(SmallestLoadFirstPlacement(),
                                 Shape(videos, servers, degree)));
}

/// The shape's popularity dealt to video ids in a seeded random order.
std::vector<double> shuffled_by_id(const Shape& shape, std::uint64_t seed) {
  std::vector<double> by_id = shape.popularity;
  Rng rng(seed);
  rng.shuffle(by_id);
  return by_id;
}

/// `requests` draws from `popularity` (rank order) dealt to ids rotated by
/// `shift`, so the hot set drifts across epochs.
std::vector<std::size_t> drifted_counts(const std::vector<double>& popularity,
                                        std::size_t shift,
                                        std::size_t requests, Rng& rng) {
  std::vector<double> cumulative(popularity.size());
  std::partial_sum(popularity.begin(), popularity.end(), cumulative.begin());
  std::vector<std::size_t> counts(popularity.size(), 0);
  for (std::size_t k = 0; k < requests; ++k) {
    const double u = rng.uniform() * cumulative.back();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end() - 1, u) -
        cumulative.begin());
    ++counts[(rank + shift) % popularity.size()];
  }
  return counts;
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

TEST(GoldenLayout, RoundRobinPlacement) {
  EXPECT_EQ(fingerprint(adams_place(RoundRobinPlacement(), Shape(300, 8, 1.2))),
            0x59e78ae2b170e363ULL);
  EXPECT_EQ(
      fingerprint(adams_place(RoundRobinPlacement(), Shape(10'000, 64, 1.2))),
      0xf324c1e93b4629d7ULL);
}

TEST(GoldenLayout, ProvisionByIdRankPermutation) {
  // Rank-space Adams + SLF mapped back to ids shuffled apart from rank.
  Fingerprint f;
  for (const Shape& shape : {Shape(300, 8, 1.2), Shape(10'000, 64, 1.2)}) {
    const IdProvisioningResult result = provision_by_id(
        shuffled_by_id(shape, 2502), AdamsReplication(),
        SmallestLoadFirstPlacement(), shape.servers, shape.budget,
        shape.capacity);
    for (std::size_t r : result.plan.replicas) f.mix(r);
    f.mix(fingerprint(result.layout));
  }
  EXPECT_EQ(f.hash, 0x6ba1c60321cf5f8fULL);
}

TEST(GoldenLayout, IncrementalReplansAtPaperWeekShape) {
  // The paper-week controller (Adams, SLF, incremental replans) over 7
  // epochs of 2,400 requests whose hot set drifts by 37 ids a day.
  const Shape shape(300, 8, 1.2);
  ControllerConfig config;
  config.num_servers = shape.servers;
  config.budget = shape.budget;
  config.capacity_per_server = shape.capacity;
  AdaptiveController controller(config, shape.popularity);
  Fingerprint f;
  f.mix(fingerprint(controller.layout()));
  Rng rng(2503);
  for (std::size_t epoch = 0; epoch < 7; ++epoch) {
    controller.observe_epoch(
        drifted_counts(shape.popularity, 37 * (epoch + 1), 2400, rng));
    const AdaptationStep step = controller.adapt();
    f.mix(step.replanned ? 1 : 0);
    f.mix(step.migration.copies.size());
    f.mix(step.migration.deletions);
    for (const ReplicaCopy& copy : step.migration.copies) {
      f.mix(copy.video);
      f.mix(copy.to_server);
    }
    f.mix(fingerprint(controller.layout()));
  }
  EXPECT_EQ(f.hash, 0x9bfa87aeba943786ULL);
}

TEST(GoldenLayout, SavedAndLoadedPlacement) {
  PlacementFile placement;
  placement.num_servers = 64;
  placement.layout =
      adams_place(SmallestLoadFirstPlacement(), Shape(10'000, 64, 1.2));
  std::ostringstream saved;
  save_placement(saved, placement);
  Fingerprint text;
  for (const char c : saved.str()) text.mix(static_cast<unsigned char>(c));
  EXPECT_EQ(text.hash, 0xfa2795e72cfe4024ULL);
  std::istringstream in(saved.str());
  EXPECT_EQ(fingerprint(load_placement(in).layout), 0xfba82885fe4218e9ULL);
}

}  // namespace
}  // namespace vodrep
