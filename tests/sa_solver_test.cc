#include "src/core/sa_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

ScalableProblem test_problem(double storage_gb = 30.0) {
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(12, 0.75);
  p.cluster.num_servers = 4;
  p.cluster.bandwidth_bps_per_server = units::gbps(1.0);
  p.cluster.storage_bytes_per_server = units::gigabytes(storage_gb);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4),
                        units::mbps(8)};
  p.expected_peak_requests = 500.0;
  return p;
}

SaSolverOptions quick_options() {
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 60;
  options.anneal.final_temperature = 1e-3;
  options.anneal.stall_steps = 20;
  return options;
}

TEST(ScalableSaProblem, InitialSolutionIsFeasible) {
  const ScalableProblem p = test_problem();
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(1);
  const ScalableSolution s = sa.initial(rng);
  EXPECT_TRUE(is_feasible(p, s));
}

/// Applies and commits one move, as the engine does for an accepted one.
void propose_and_commit(const ScalableSaProblem& sa,
                        ScalableSaProblem::Scratch& scratch, Rng& rng) {
  if (!sa.propose(scratch, rng)) return;
  (void)sa.delta_cost(scratch);
  sa.commit(scratch);
}

TEST(ScalableSaProblem, NeighborsStayFeasible) {
  const ScalableProblem p = test_problem();
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(2);
  ScalableSaProblem::Scratch scratch = sa.make_scratch(sa.initial(rng));
  for (int i = 0; i < 300; ++i) {
    propose_and_commit(sa, scratch, rng);
    ASSERT_TRUE(is_feasible(p, scratch.state.to_solution())) << "move " << i;
  }
}

TEST(ScalableSaProblem, NeighborsPreserveAtLeastOneReplica) {
  const ScalableProblem p = test_problem(8.0);  // tight storage forces repair
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(3);
  ScalableSaProblem::Scratch scratch = sa.make_scratch(sa.initial(rng));
  for (int i = 0; i < 300; ++i) {
    propose_and_commit(sa, scratch, rng);
    for (std::size_t v = 0; v < p.videos.count(); ++v) {
      ASSERT_GE(scratch.state.replica_count(v), 1u);
    }
  }
}

TEST(ScalableSaProblem, CostIsNegatedObjectiveWhenFeasible) {
  const ScalableProblem p = test_problem();
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(4);
  const ScalableSolution s = sa.initial(rng);
  EXPECT_NEAR(sa.cost(s), -solution_objective(p, s), 1e-12);
}

TEST(ScalableSaProblem, RepairFixesStorageOverflow) {
  const ScalableProblem p = test_problem(6.0);
  const ScalableSaProblem sa(p, quick_options());
  ScalableSolution s = lowest_rate_round_robin(p);
  s.bitrate_index.assign(12, 3);  // 8 Mb/s everywhere: way over storage
  EXPECT_TRUE(sa.repair(s));
  const ServerUsage usage = compute_usage(p, s);
  for (double bytes : usage.storage_bytes) {
    EXPECT_LE(bytes, p.cluster.storage_bytes_per_server * (1 + 1e-9));
  }
}

TEST(ScalableSaProblem, InPlaceMovesMatchReferenceCost) {
  // The delta-evaluation contract: along a random propose/commit/revert
  // walk, cost_before + delta_cost must equal the from-scratch cost() of the
  // extracted solution, and revert must restore the pre-move cost.
  const ScalableProblem p = test_problem(15.0);  // tight enough to repair
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(6);
  ScalableSaProblem::Scratch scratch = sa.make_scratch(sa.initial(rng));
  double current = sa.cost(scratch.state.to_solution());
  int applied = 0;
  for (int i = 0; i < 400; ++i) {
    if (!sa.propose(scratch, rng)) continue;
    ++applied;
    const double candidate = current + sa.delta_cost(scratch);
    const double reference = sa.cost(scratch.state.to_solution());
    ASSERT_NEAR(reference, candidate,
                1e-9 * std::max(1.0, std::abs(reference)))
        << "move " << i;
    if (rng.bernoulli(0.5)) {
      sa.commit(scratch);
      current = candidate;
    } else {
      sa.revert(scratch);
      ASSERT_NEAR(sa.cost(scratch.state.to_solution()), current,
                  1e-9 * std::max(1.0, std::abs(current)))
          << "revert " << i;
    }
  }
  EXPECT_GT(applied, 100);  // the walk actually exercised the move set
  // Repair runs inside propose, so the walk never leaves the storage
  // constraint (bandwidth is soft).
  const ServerUsage usage = compute_usage(p, scratch.state.to_solution());
  for (double bytes : usage.storage_bytes) {
    EXPECT_LE(bytes, p.cluster.storage_bytes_per_server * (1 + 1e-9));
  }
}

TEST(ScalableSaProblem, JournalStaysBoundedOnAPlateau) {
  // A walk that commits every applied move, at ten times the quick
  // options' moves per temperature step: new bests soon stop landing, so
  // without the tail bound the journal would grow by every commit.  After
  // every commit the journal stays within its bound, and extract_best()
  // still returns the best configuration the walk committed.
  const ScalableProblem p = test_problem(15.0);
  const ScalableSaProblem sa(p, quick_options());
  Rng rng(8);
  ScalableSaProblem::Scratch scratch = sa.make_scratch(sa.initial(rng));
  const std::size_t bound = kSaJournalTailPerVideo * p.videos.count();
  auto sorted = [](ScalableSolution s) {
    for (auto& servers : s.placement) std::sort(servers.begin(), servers.end());
    return s;
  };
  ScalableSolution best = sorted(scratch.state.to_solution());
  std::size_t commits = 0;
  bool snapshotted = false;
  for (int step = 0; step < 150; ++step) {
    for (std::size_t move = 0;
         move < 10 * quick_options().anneal.moves_per_temperature; ++move) {
      if (!sa.propose(scratch, rng)) continue;
      (void)sa.delta_cost(scratch);
      const double best_cost = scratch.best_cost;
      sa.commit(scratch);
      ++commits;
      ASSERT_LE(scratch.state.checkpoint(), bound) << "commit " << commits;
      if (scratch.best_cost < best_cost) {
        best = sorted(scratch.state.to_solution());
      }
      snapshotted = snapshotted || scratch.best_snapshot.has_value();
    }
  }
  EXPECT_GT(commits, bound);  // the unbounded journal would have passed it
  EXPECT_TRUE(snapshotted);
  const ScalableSolution extracted = sorted(sa.extract_best(scratch));
  EXPECT_EQ(extracted.bitrate_index, best.bitrate_index);
  EXPECT_EQ(extracted.placement, best.placement);
}

TEST(SolveScalable, SaturatedNeighborhoodReportsNoopMoves) {
  // Three videos on two servers with abundant resources: the annealer soon
  // hosts everything everywhere at the top rate, after which every growth
  // move is a no-op the engine must skip and count.
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(3, 0.75);
  p.cluster.num_servers = 2;
  p.cluster.bandwidth_bps_per_server = units::gbps(50.0);
  p.cluster.storage_bytes_per_server = units::gigabytes(1000.0);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2)};
  p.expected_peak_requests = 10.0;
  SaSolverOptions options = quick_options();
  options.shrink_probability = 0.0;
  options.anneal.stall_steps = 0;
  const SaSolverResult result = solve_scalable(p, 17, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.anneal.moves_noop, 0u);
  EXPECT_EQ(result.anneal.moves_proposed + result.anneal.moves_noop,
            result.anneal.temperature_steps *
                options.anneal.moves_per_temperature);
}

TEST(SolveScalable, ImprovesOverInitialSolution) {
  const ScalableProblem p = test_problem();
  const double initial_objective =
      solution_objective(p, lowest_rate_round_robin(p));
  const SaSolverResult result = solve_scalable(p, /*seed=*/11, quick_options());
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.objective, initial_objective);
}

TEST(SolveScalable, DeterministicGivenSeed) {
  const ScalableProblem p = test_problem();
  const SaSolverResult a = solve_scalable(p, 21, quick_options());
  const SaSolverResult b = solve_scalable(p, 21, quick_options());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.solution.bitrate_index, b.solution.bitrate_index);
  EXPECT_EQ(a.solution.placement, b.solution.placement);
}

TEST(SolveScalable, MoreStorageNeverHurtsTheObjective) {
  const SaSolverResult tight = solve_scalable(test_problem(8.0), 31,
                                              quick_options());
  const SaSolverResult roomy = solve_scalable(test_problem(60.0), 31,
                                              quick_options());
  EXPECT_GE(roomy.objective, tight.objective - 0.2);
}

TEST(SolveScalable, MultichainImprovesOverInitialAndStaysFeasible) {
  const ScalableProblem p = test_problem();
  const double initial_objective =
      solution_objective(p, lowest_rate_round_robin(p));
  SaSolverOptions options = quick_options();
  options.chains = 4;
  const SaSolverResult multi = solve_scalable(p, 5, options);
  EXPECT_TRUE(multi.feasible);
  EXPECT_GT(multi.objective, initial_objective);
}

TEST(SolveScalable, MultichainDeterministicWithPool) {
  const ScalableProblem p = test_problem();
  SaSolverOptions options = quick_options();
  options.chains = 3;
  ThreadPool pool(2);
  const SaSolverResult serial = solve_scalable(p, 9, options);
  const SaSolverResult pooled = solve_scalable(p, 9, options, &pool);
  EXPECT_EQ(serial.objective, pooled.objective);
  EXPECT_EQ(serial.solution.placement, pooled.solution.placement);
}

TEST(SolveScalable, PaperNeighborhoodIsSupportedVerbatim) {
  // shrink_probability = 0 reproduces the neighborhood exactly as the paper
  // states it; it must still run and return a feasible improvement.
  const ScalableProblem p = test_problem();
  SaSolverOptions options = quick_options();
  options.shrink_probability = 0.0;
  const SaSolverResult result = solve_scalable(p, 13, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.objective,
            solution_objective(p, lowest_rate_round_robin(p)));
}

TEST(SolveScalable, ShrinkMovesEscapeTheStorageFullPlateau) {
  // With moderate storage the growth-only neighborhood plateaus once every
  // server fills; explicit shrink moves keep improving.  Same seed, same
  // annealing budget — only the neighborhood differs.
  const ScalableProblem p = test_problem(20.0);
  SaSolverOptions paper = quick_options();
  paper.anneal.stall_steps = 0;  // run both to the full schedule
  paper.shrink_probability = 0.0;
  SaSolverOptions shrink = paper;
  shrink.shrink_probability = 0.2;
  const double paper_objective = solve_scalable(p, 99, paper).objective;
  const double shrink_objective = solve_scalable(p, 99, shrink).objective;
  EXPECT_GT(shrink_objective, paper_objective);
}

TEST(SolveScalable, SaturatedClusterStillReturnsFeasibleStorage) {
  // Huge request volume: bandwidth is irreparably overloaded (soft), but
  // the returned solution must still satisfy storage and placement rules.
  ScalableProblem p = test_problem();
  p.expected_peak_requests = 1e6;
  const SaSolverResult result = solve_scalable(p, 41, quick_options());
  const ServerUsage usage = compute_usage(p, result.solution);
  for (double bytes : usage.storage_bytes) {
    EXPECT_LE(bytes, p.cluster.storage_bytes_per_server * (1 + 1e-9));
  }
}

/// FNV-1a over 64-bit words.
struct Fingerprint {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t word) { hash = (hash ^ word) * 1099511628211ULL; }
  void mix_double(double x) {
    std::uint64_t word = 0;
    std::memcpy(&word, &x, sizeof word);
    mix(word);
  }
};

/// Everything solve_scalable returns: the objective's bits and feasibility,
/// each video's ladder index and sorted server set, the move and swap
/// counters, the winning chain, and every chain's counters, temperature
/// steps and trajectory.
std::uint64_t fingerprint(const SaSolverResult& result) {
  Fingerprint f;
  f.mix_double(result.objective);
  f.mix(result.feasible ? 1 : 0);
  for (std::size_t i = 0; i < result.solution.bitrate_index.size(); ++i) {
    f.mix(result.solution.bitrate_index[i]);
    std::vector<std::size_t> servers = result.solution.placement[i];
    std::sort(servers.begin(), servers.end());
    f.mix(servers.size());
    for (const std::size_t s : servers) f.mix(s);
  }
  const auto& anneal = result.anneal;
  f.mix(anneal.moves_proposed);
  f.mix(anneal.moves_accepted);
  f.mix(anneal.moves_noop);
  f.mix(anneal.swap_attempts);
  f.mix(anneal.swap_accepts);
  f.mix(anneal.winning_chain);
  for (const AnnealChainStats& chain : anneal.chains) {
    f.mix_double(chain.best_cost);
    f.mix_double(chain.final_temperature);
    f.mix(chain.temperature_steps);
    f.mix(chain.moves_proposed);
    f.mix(chain.moves_accepted);
    f.mix(chain.moves_noop);
    f.mix(chain.swaps_accepted);
    f.mix(chain.trajectory.size());
    for (const auto& [temperature, best] : chain.trajectory) {
      f.mix_double(temperature);
      f.mix_double(best);
    }
  }
  return f.hash;
}

/// E7's problem (src/exp/experiments.cc) at any size: a 90-minute Zipf(0.75)
/// catalogue on 1.8 Gb/s servers over a six-rate ladder.
ScalableProblem golden_problem(std::size_t videos, std::size_t servers,
                               double storage_gb, double peak_requests) {
  ScalableProblem problem;
  problem.videos.duration_sec = units::minutes(90);
  problem.videos.popularity = zipf_popularity(videos, 0.75);
  problem.cluster.num_servers = servers;
  problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
  problem.cluster.storage_bytes_per_server = units::gigabytes(storage_gb);
  problem.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(3),
                              units::mbps(4), units::mbps(6), units::mbps(8)};
  problem.expected_peak_requests = peak_requests;
  problem.weights.alpha = 1.0;
  problem.weights.beta = 1.0;
  return problem;
}

/// E7's annealing budget: 60 moves per temperature step, stall stop at 15.
SaSolverOptions golden_options(std::size_t chains, double shrink_probability) {
  SaSolverOptions options;
  options.anneal.initial_temperature = 1.0;
  options.anneal.moves_per_temperature = 60;
  options.anneal.final_temperature = 1e-3;
  options.anneal.stall_steps = 15;
  options.chains = chains;
  options.shrink_probability = shrink_probability;
  return options;
}

TEST(SolveScalable, GoldenFingerprints) {
  // E7's quick shape (src/exp/experiments.cc) at two storage points, one
  // chain and four, with and without explicit shrink moves.  Recorded
  // before the annealer became one journaled-move path; every solve must
  // stay bit-identical, with and without a pool.
  struct Golden {
    double storage_gb;
    double shrink_probability;
    std::size_t chains;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {30.0, 0.2, 1, 0x80cf7b35efd42399ULL},
      {30.0, 0.2, 4, 0xe2870921583d7572ULL},
      {30.0, 0.0, 1, 0x13eb6a170d9f4f46ULL},
      {30.0, 0.0, 4, 0x992bf2d93845c731ULL},
      {120.0, 0.2, 1, 0x53e95ab9c91156e0ULL},
      {120.0, 0.2, 4, 0xea2634f57150ad62ULL},
      {120.0, 0.0, 1, 0x53a134764dea84fbULL},
      {120.0, 0.0, 4, 0x9bcee4d68dfd94f9ULL},
  };
  ThreadPool pool(2);
  for (const Golden& golden : goldens) {
    const ScalableProblem problem =
        golden_problem(40, 8, golden.storage_gb, 30.0 * 90.0);
    const SaSolverOptions options =
        golden_options(golden.chains, golden.shrink_probability);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const SaSolverResult result = solve_scalable(problem, 2002, options, p);
      EXPECT_EQ(fingerprint(result), golden.fingerprint)
          << std::hex << "0x" << fingerprint(result) << std::dec << " at "
          << golden.storage_gb << " GB, shrink "
          << golden.shrink_probability << ", " << golden.chains
          << " chain(s), pool " << (p != nullptr);
    }
  }
}

TEST(SolveScalable, MultiBlockGoldenFingerprints) {
  // Shapes whose servers host more than 64 videos, at E7's budget:
  // sa-scalable's problem (benchmark/vodrep_benchmark.cc; M = 2000, N = 32,
  // lambda*T = 14,400) and M = 400 on N = 6 at the same load per server.
  // Recorded before the neighbourhood read per-server position sets; every
  // solve must stay bit-identical, with and without a pool.
  struct Golden {
    std::size_t videos;
    std::size_t servers;
    double storage_gb;
    std::size_t chains;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {2000, 32, 200.0, 1, 0x7beee87bcd9a851dULL},
      {2000, 32, 200.0, 4, 0x23d9d1a720516b79ULL},
      {400, 6, 200.0, 1, 0x9ce1ffb3d2177991ULL},
      {400, 6, 200.0, 4, 0x573b4544e9e7b8d8ULL},
      {400, 6, 400.0, 1, 0x44b726b5ca7b6083ULL},
      {400, 6, 400.0, 4, 0x030bdef4d2a2bae9ULL},
  };
  ThreadPool pool(2);
  std::size_t most_hosted = 0;
  std::size_t most_replicas = 0;
  for (const Golden& golden : goldens) {
    const ScalableProblem problem =
        golden_problem(golden.videos, golden.servers, golden.storage_gb,
                       450.0 * static_cast<double>(golden.servers));
    const SaSolverOptions options = golden_options(golden.chains, 0.2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const SaSolverResult result = solve_scalable(problem, 2002, options, p);
      EXPECT_EQ(fingerprint(result), golden.fingerprint)
          << std::hex << "0x" << fingerprint(result) << std::dec << " at M = "
          << golden.videos << ", N = " << golden.servers << ", "
          << golden.storage_gb << " GB, " << golden.chains
          << " chain(s), pool " << (p != nullptr);
      std::vector<std::size_t> hosted(golden.servers, 0);
      for (const std::vector<std::size_t>& servers :
           result.solution.placement) {
        most_replicas = std::max(most_replicas, servers.size());
        for (const std::size_t s : servers) ++hosted[s];
      }
      most_hosted = std::max(
          most_hosted, *std::max_element(hosted.begin(), hosted.end()));
    }
  }
  // The goldens cross a second 64-position block boundary and the inline
  // replica strip.
  EXPECT_GT(most_hosted, 128u);
  EXPECT_GT(most_replicas, std::size_t{IncrementalState::kInlineReplicas});
}

}  // namespace
}  // namespace vodrep
