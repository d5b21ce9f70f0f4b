// E9 / Section 4 complexity claims: google-benchmark microbenchmarks of the
// replication and placement algorithms across catalogue sizes, validating
// the asymptotic claims (Adams O(M) per counting pass, where the paper's
// heap greedy is O(M + N*C log M); Zipf-interval O(M log M); SLF placement
// in M and in N; the brute-force optimal used by the tests), plus the edge
// prefix cache's eviction cost in M.  Adams and SLF also run once at the
// catalog-1m benchmark's shape (2^20 videos, N = 256, degree 1.2).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/core/adams_replication.h"
#include "src/core/bounds.h"
#include "src/core/classification_replication.h"
#include "src/core/round_robin_placement.h"
#include "src/core/slf_placement.h"
#include "src/core/zipf_interval_replication.h"
#include "src/sim/prefix_cache.h"
#include "src/workload/popularity.h"
#include "src/workload/sampler.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;

constexpr std::size_t kServers = 8;
constexpr double kTheta = 0.75;
constexpr double kDegree = 1.4;

std::size_t budget_for(std::size_t m, double degree = kDegree) {
  return static_cast<std::size_t>(degree * static_cast<double>(m));
}

/// Arguments of the Adams and SLF benchmarks: M, N and the replication
/// degree in percent.  The M sweep at N = 8 gets the complexity fit; the
/// catalog-1m point is timed alone.
std::vector<std::vector<std::int64_t>> sweep_to(std::int64_t max_videos) {
  return {benchmark::CreateRange(64, max_videos, 8),
          {static_cast<std::int64_t>(kServers)},
          {static_cast<std::int64_t>(kDegree * 100.0)}};
}
const std::vector<std::int64_t> kCatalogPoint = {1 << 20, 256, 120};

/// The world of one Adams/SLF benchmark argument set.
struct World {
  explicit World(const benchmark::State& state)
      : m(static_cast<std::size_t>(state.range(0))),
        n(static_cast<std::size_t>(state.range(1))),
        budget(budget_for(m, static_cast<double>(state.range(2)) / 100.0)),
        popularity(zipf_popularity(m, kTheta)) {}
  std::size_t m;
  std::size_t n;
  std::size_t budget;
  std::vector<double> popularity;
};

void BM_AdamsReplication(benchmark::State& state) {
  const World world(state);
  const AdamsReplication adams;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adams.replicate(world.popularity, world.n, world.budget));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(world.m));
}
BENCHMARK(BM_AdamsReplication)
    ->ArgsProduct(sweep_to(16384))
    ->Complexity(benchmark::oN);
BENCHMARK(BM_AdamsReplication)
    ->Args(kCatalogPoint)
    ->Unit(benchmark::kMillisecond);

void BM_ZipfIntervalReplication(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const ZipfIntervalReplication zipf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.replicate(popularity, kServers,
                                            budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_ZipfIntervalReplication)
    ->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_ClassificationReplication(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const ClassificationReplication classification;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classification.replicate(popularity, kServers, budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_ClassificationReplication)
    ->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_SlfPlacement(benchmark::State& state) {
  const World world(state);
  const auto plan =
      AdamsReplication().replicate(world.popularity, world.n, world.budget);
  const std::size_t capacity = (world.budget + world.n - 1) / world.n;
  const SmallestLoadFirstPlacement slf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        slf.place(plan, world.popularity, world.n, capacity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(world.m));
}
BENCHMARK(BM_SlfPlacement)->ArgsProduct(sweep_to(8192))->Complexity();
BENCHMARK(BM_SlfPlacement)->Args(kCatalogPoint)->Unit(benchmark::kMillisecond);

// The server-count axis BM_SlfPlacement holds fixed: one (load, index) sort
// per round of N replicas makes placement O(R log N) at a fixed catalogue.
void BM_SlfPlacementServers(benchmark::State& state) {
  constexpr std::size_t kVideos = 16384;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(kVideos, kTheta);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, n, budget_for(kVideos));
  const std::size_t capacity = (budget_for(kVideos) + n - 1) / n;
  const SmallestLoadFirstPlacement slf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(slf.place(plan, popularity, n, capacity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_SlfPlacementServers)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity();

void BM_RoundRobinPlacement(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, kServers, budget_for(m));
  const std::size_t capacity = (budget_for(m) + kServers - 1) / kServers;
  const RoundRobinPlacement rr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rr.place(plan, popularity, kServers, capacity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_RoundRobinPlacement)->Range(64, 8192)->Complexity();

void BM_BruteForceOptimalMaxWeight(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimal_max_weight(popularity, kServers, budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_BruteForceOptimalMaxWeight)->Range(64, 4096)->Complexity();

void BM_TraceGeneration(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  TraceSpec spec;
  spec.arrival_rate = 40.0 / 60.0;
  spec.horizon = 90.0 * 60.0;
  spec.popularity = zipf_popularity(m, kTheta);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_trace(rng, spec));
  }
}
BENCHMARK(BM_TraceGeneration)->Range(64, 16384);

void BM_AliasSamplerBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscreteSampler(popularity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_AliasSamplerBuild)->Range(64, 65536)->Complexity(benchmark::oN);

// Edge prefix cache under a Zipf request stream, sized to a tenth of the
// catalogue so most misses evict.  Victim selection is O(1), so the time per
// request should stay flat in M.  Arg 1 picks the policy: 0 LRU, 1 LFU.
void BM_PrefixCacheEviction(benchmark::State& state) {
  constexpr std::size_t kRequests = 1 << 16;
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto policy = state.range(1) == 0 ? CacheEvictionPolicy::kLru
                                          : CacheEvictionPolicy::kLfu;
  const DiscreteSampler sampler(zipf_popularity(m, kTheta));
  Rng rng(11);
  std::vector<std::size_t> requests(kRequests);
  for (std::size_t& video : requests) video = sampler.sample(rng);
  PrefixCache cache(policy, static_cast<double>(m / 10),
                    std::vector<double>(m, 1.0));
  for (auto _ : state) {
    for (const std::size_t video : requests) {
      if (!cache.lookup(video)) cache.insert(video);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<benchmark::IterationCount>(kRequests));
}
BENCHMARK(BM_PrefixCacheEviction)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->ArgNames({"M", "lfu"});

}  // namespace

BENCHMARK_MAIN();
