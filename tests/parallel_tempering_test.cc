#include "src/anneal/parallel_tempering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/sa_solver.h"
#include "src/core/scalable.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "tests/anneal_toy_problems.h"

namespace vodrep {
namespace {

AnnealOptions rugged_options() {
  AnnealOptions options;
  options.initial_temperature = 200.0;
  options.moves_per_temperature = 100;
  options.stall_steps = 0;
  return options;
}

ScalableProblem scalable_problem() {
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(30, 0.75);
  p.cluster.num_servers = 5;
  p.cluster.bandwidth_bps_per_server = units::gbps(0.5);
  p.cluster.storage_bytes_per_server = units::gigabytes(150.0);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4)};
  p.expected_peak_requests = 600.0;
  return p;
}

SaSolverOptions small_sa_options(std::size_t chains) {
  SaSolverOptions options;
  options.chains = chains;
  options.anneal.initial_temperature = 1.0;
  options.anneal.max_temperature_steps = 25;
  options.anneal.moves_per_temperature = 40;
  options.anneal.stall_steps = 0;
  return options;
}

// --- K = 1 equivalence: one tempering chain IS a hand-driven chain -------

/// Drives one AnnealChain on Rng(seed) to its end by hand, as the driver
/// does for K = 1, and returns its stats and best state.
template <typename P>
std::pair<AnnealChainStats, typename P::State> run_by_hand(
    const P& problem, std::uint64_t seed, const AnnealOptions& options) {
  Rng rng(seed);  // pt_chain_seed(seed, 0) == seed
  AnnealChain<P> chain(problem, rng, options);
  while (chain.step()) {
  }
  AnnealChainStats stats = chain.take_stats();
  return {std::move(stats), chain.take_best_state()};
}

TEST(ParallelTempering, SingleChainReproducesAnneal) {
  RuggedProblem problem;
  const AnnealOptions options = rugged_options();
  const auto [single, best_state] = run_by_hand(problem, 0x600D, options);
  const auto tempered = anneal_parallel_tempering(problem, 0x600D, 1, options);
  EXPECT_EQ(tempered.best_state, best_state);
  EXPECT_EQ(tempered.best_cost, single.best_cost);
  EXPECT_EQ(tempered.moves_proposed, single.moves_proposed);
  EXPECT_EQ(tempered.moves_accepted, single.moves_accepted);
  EXPECT_EQ(tempered.temperature_steps, single.temperature_steps);
  EXPECT_EQ(tempered.final_temperature, single.final_temperature);
  ASSERT_EQ(tempered.chains.size(), 1u);
  EXPECT_EQ(tempered.chains[0].trajectory, single.trajectory);
  EXPECT_EQ(tempered.winning_chain, 0u);
  EXPECT_EQ(tempered.swap_attempts, 0u);
}

TEST(ParallelTempering, SingleChainReproducesAnnealInPlace) {
  FlooredProblem problem;
  AnnealOptions options;
  options.initial_temperature = 50.0;
  options.stall_steps = 0;
  options.max_temperature_steps = 150;
  const auto [single, best_state] = run_by_hand(problem, 42, options);
  const auto tempered = anneal_parallel_tempering(problem, 42, 1, options);
  EXPECT_EQ(tempered.best_state, best_state);
  EXPECT_EQ(tempered.best_cost, single.best_cost);
  EXPECT_EQ(tempered.moves_proposed, single.moves_proposed);
  EXPECT_EQ(tempered.moves_noop, single.moves_noop);
}

// --- Determinism: bit-identical regardless of thread-pool size ------------

TEST(ParallelTempering, DeterministicAcrossPoolSizes) {
  RuggedProblem problem;
  AnnealOptions options = rugged_options();
  options.swap_period = 4;
  const auto serial = anneal_parallel_tempering(problem, 77, 4, options);
  ThreadPool pool1(1);
  const auto pooled1 =
      anneal_parallel_tempering(problem, 77, 4, options, &pool1);
  ThreadPool pool4(4);
  const auto pooled4 =
      anneal_parallel_tempering(problem, 77, 4, options, &pool4);
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  ThreadPool pool_hw(hw);
  const auto pooled_hw =
      anneal_parallel_tempering(problem, 77, 4, options, &pool_hw);

  for (const auto* run : {&pooled1, &pooled4, &pooled_hw}) {
    EXPECT_EQ(run->best_state, serial.best_state);
    EXPECT_EQ(run->best_cost, serial.best_cost);
    EXPECT_EQ(run->winning_chain, serial.winning_chain);
    EXPECT_EQ(run->moves_proposed, serial.moves_proposed);
    EXPECT_EQ(run->moves_accepted, serial.moves_accepted);
    EXPECT_EQ(run->swap_attempts, serial.swap_attempts);
    EXPECT_EQ(run->swap_accepts, serial.swap_accepts);
    ASSERT_EQ(run->chains.size(), serial.chains.size());
    for (std::size_t c = 0; c < serial.chains.size(); ++c) {
      EXPECT_EQ(run->chains[c].best_cost, serial.chains[c].best_cost);
      EXPECT_EQ(run->chains[c].moves_proposed,
                serial.chains[c].moves_proposed);
      EXPECT_EQ(run->chains[c].swaps_accepted,
                serial.chains[c].swaps_accepted);
    }
  }
}

// --- Ladder structure and accounting --------------------------------------

TEST(ParallelTempering, ExchangesHappenAndAccountingCloses) {
  RuggedProblem problem;
  AnnealOptions options = rugged_options();
  options.swap_period = 2;
  const auto result = anneal_parallel_tempering(problem, 5, 4, options);

  EXPECT_GT(result.swap_attempts, 0u);
  EXPECT_LE(result.swap_accepts, result.swap_attempts);
  ASSERT_EQ(result.chains.size(), 4u);

  // Aggregate move counters must equal the per-chain sums.
  std::size_t proposed = 0;
  std::size_t accepted = 0;
  std::size_t swaps = 0;
  double best = result.chains[0].best_cost;
  for (const auto& chain : result.chains) {
    proposed += chain.moves_proposed;
    accepted += chain.moves_accepted;
    swaps += chain.swaps_accepted;
    best = std::min(best, chain.best_cost);
  }
  EXPECT_EQ(result.moves_proposed, proposed);
  EXPECT_EQ(result.moves_accepted, accepted);
  // Every accepted exchange touches exactly two chains.
  EXPECT_EQ(swaps, 2 * result.swap_accepts);
  // The reduction is the minimum per-chain best, ties to the lowest index.
  EXPECT_EQ(result.best_cost, best);
  EXPECT_EQ(result.chains[result.winning_chain].best_cost, best);
  for (std::size_t c = 0; c < result.winning_chain; ++c) {
    EXPECT_GT(result.chains[c].best_cost, best);
  }
  // The winner escaped the local minimum (cold chain refined what the hot
  // chains handed down, or found it alone).
  EXPECT_DOUBLE_EQ(result.best_cost, -500.0);
}

TEST(ParallelTempering, HotterChainsStartHotter) {
  RuggedProblem problem;
  AnnealOptions options = rugged_options();
  options.temperature_spread = 2.0;
  options.stall_steps = 0;
  options.max_temperature_steps = 5;  // few steps: final temps stay ordered
  options.swap_period = 100;          // no exchanges interfere
  const auto result = anneal_parallel_tempering(problem, 9, 3, options);
  ASSERT_EQ(result.chains.size(), 3u);
  EXPECT_LT(result.chains[0].final_temperature,
            result.chains[1].final_temperature);
  EXPECT_LT(result.chains[1].final_temperature,
            result.chains[2].final_temperature);
}

TEST(ParallelTempering, RejectsBadOptions) {
  RuggedProblem problem;
  AnnealOptions options = rugged_options();
  EXPECT_THROW((void)anneal_parallel_tempering(problem, 1, 0, options),
               InvalidArgumentError);
  // The ladder options are checked at every chain count, one included.
  for (const std::size_t chains : {1u, 2u}) {
    AnnealOptions bad = options;
    bad.swap_period = 0;
    EXPECT_THROW((void)anneal_parallel_tempering(problem, 1, chains, bad),
                 InvalidArgumentError);
    bad = options;
    bad.temperature_spread = 0.5;
    EXPECT_THROW((void)anneal_parallel_tempering(problem, 1, chains, bad),
                 InvalidArgumentError);
  }
}

TEST(ParallelTempering, ChainSeedsAreStable) {
  // Chain 0 must reuse the base seed verbatim (K=1 equivalence contract).
  EXPECT_EQ(pt_chain_seed(0xABCD, 0), 0xABCDull);
  EXPECT_NE(pt_chain_seed(0xABCD, 1), 0xABCDull);
}

// --- End-to-end through solve_scalable ------------------------------------

TEST(ParallelTempering, SolveScalableDeterministicAcrossPoolSizes) {
  const ScalableProblem problem = scalable_problem();
  const SaSolverOptions options = small_sa_options(3);
  const SaSolverResult serial = solve_scalable(problem, 2002, options);
  ThreadPool pool(2);
  const SaSolverResult pooled = solve_scalable(problem, 2002, options, &pool);
  EXPECT_EQ(pooled.objective, serial.objective);
  EXPECT_EQ(pooled.solution.bitrate_index, serial.solution.bitrate_index);
  EXPECT_EQ(pooled.solution.placement, serial.solution.placement);
  EXPECT_EQ(pooled.anneal.winning_chain, serial.anneal.winning_chain);
  EXPECT_EQ(pooled.anneal.swap_accepts, serial.anneal.swap_accepts);
}

TEST(ParallelTempering, SolveScalableLayoutsPassAuditAtEveryChainCount) {
  const ScalableProblem problem = scalable_problem();
  for (const std::size_t chains : {1u, 2u, 4u, 8u}) {
    const SaSolverResult result =
        solve_scalable(problem, 41, small_sa_options(chains));
    const AuditReport report =
        LayoutAuditor::audit_solution(problem, result.solution);
    EXPECT_TRUE(report.ok()) << "chains=" << chains << ": "
                             << report.summary();
    EXPECT_EQ(result.anneal.chains.size(), chains);
    EXPECT_LT(result.anneal.winning_chain, chains);
  }
}

}  // namespace
}  // namespace vodrep
