// SA hot-path benchmark: copy-based full recompute vs incremental
// delta-evaluation (src/core/incremental_state.h).
//
// `BaselineSaProblem` below preserves the pre-incremental solver verbatim —
// per-move State deep copy, O(M) videos_on_server scans, compute_usage
// rebuilt from scratch in cost() and once per repair action — so the
// speedup reported here stays honest across future PRs even as the library
// solver evolves.  Both solvers run through the one driver at one chain
// with the identical annealing schedule (fixed temperature-step count,
// stall disabled), so the Metropolis loop iteration count is the same;
// moves/sec = iterations / wall time.
//
// The bench also guards the observability layer (src/obs): a third section
// re-times the one chain solve_scalable runs against anneal_without_hooks
// (bench/obs_baseline.h), the library's own driver compiled a second time
// with its trace scopes compiled out, which must reach the same best cost,
// move counts and temperature steps.  It FAILS (exit 1) if running
// with obs compiled in but runtime-disabled costs more than 3% moves/sec.
// The two sides are timed in alternation (time_paired).
//
// The last stdout line is machine-readable JSON.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/obs_baseline.h"
#include "src/anneal/parallel_tempering.h"
#include "src/core/incremental_state.h"
#include "src/core/sa_solver.h"
#include "src/obs/trace.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace {

using namespace vodrep;

/// The seed implementation of the scalable SA problem (copy-based path):
/// kept as the benchmark baseline, not used by the library.  It runs
/// through the engine's move API with a scratch of State copies, so each
/// move still pays the seed's work: propose() builds a copied neighbor,
/// delta_cost() recomputes its full cost, and commit() copies each new best.
class BaselineSaProblem {
 public:
  using State = ScalableSolution;
  struct Scratch {
    State current;
    double current_cost = 0.0;
    State candidate;
    mutable double candidate_cost = 0.0;
    State best;
    double best_cost = 0.0;
  };

  BaselineSaProblem(const ScalableProblem& problem,
                    const SaSolverOptions& options)
      : problem_(problem), options_(options) {}

  State initial(Rng& rng) const {
    (void)rng;
    ScalableSolution solution = lowest_rate_round_robin(problem_);
    (void)repair(solution);
    return solution;
  }

  double cost(const State& state) const {
    const ServerUsage usage = compute_usage(problem_, state);
    double overflow = 0.0;
    const double capacity = problem_.cluster.bandwidth_bps_per_server;
    for (double load : usage.bandwidth_bps) {
      if (load > capacity) overflow += (load - capacity) / capacity;
    }
    const double objective =
        objective_value(state.bitrates(problem_.ladder), state.replicas(),
                        usage.bandwidth_bps, problem_.cluster.num_servers,
                        problem_.weights);
    return -objective + kSaBandwidthPenalty * overflow;
  }

  State neighbor(const State& state, Rng& rng) const {
    const std::size_t n = problem_.cluster.num_servers;
    const std::size_t m = problem_.videos.count();
    State next = state;
    const auto server = static_cast<std::size_t>(rng.uniform_index(n));

    auto try_increase_rate = [&]() {
      std::vector<std::size_t> hosted = videos_on_server(next, server);
      std::erase_if(hosted, [&](std::size_t v) {
        return next.bitrate_index[v] + 1 >= problem_.ladder.size();
      });
      if (hosted.empty()) return false;
      const std::size_t pick = hosted[rng.uniform_index(hosted.size())];
      ++next.bitrate_index[pick];
      return true;
    };
    auto try_add_replica = [&]() {
      std::vector<std::size_t> absent;
      for (std::size_t i = 0; i < m; ++i) {
        const auto& servers = next.placement[i];
        if (servers.size() < n &&
            std::find(servers.begin(), servers.end(), server) ==
                servers.end()) {
          absent.push_back(i);
        }
      }
      if (absent.empty()) return false;
      const std::size_t pick = absent[rng.uniform_index(absent.size())];
      next.placement[pick].push_back(server);
      return true;
    };
    auto try_shrink = [&]() {
      std::vector<std::size_t> hosted = videos_on_server(next, server);
      std::erase_if(hosted, [&](std::size_t v) {
        return next.bitrate_index[v] == 0 && next.placement[v].size() <= 1;
      });
      if (hosted.empty()) return false;
      const std::size_t pick = hosted[rng.uniform_index(hosted.size())];
      if (next.bitrate_index[pick] > 0 &&
          (next.placement[pick].size() <= 1 || rng.bernoulli(0.5))) {
        --next.bitrate_index[pick];
      } else {
        auto& servers_of = next.placement[pick];
        servers_of.erase(
            std::find(servers_of.begin(), servers_of.end(), server));
      }
      return true;
    };

    bool moved;
    if (rng.bernoulli(options_.shrink_probability)) {
      moved = try_shrink();
    } else if (rng.bernoulli(kSaIncreaseRateProbability)) {
      moved = try_increase_rate() || try_add_replica();
    } else {
      moved = try_add_replica() || try_increase_rate();
    }
    if (!moved) return state;
    if (!repair(next)) return state;
    return next;
  }

  Scratch make_scratch(State state) const {
    const double state_cost = cost(state);
    return Scratch{state, state_cost, {}, state_cost, state, state_cost};
  }
  bool propose(Scratch& scratch, Rng& rng) const {
    scratch.candidate = neighbor(scratch.current, rng);
    return true;
  }
  double delta_cost(const Scratch& scratch) const {
    scratch.candidate_cost = cost(scratch.candidate);
    return scratch.candidate_cost - scratch.current_cost;
  }
  void commit(Scratch& scratch) const {
    scratch.current = std::move(scratch.candidate);
    scratch.current_cost = scratch.candidate_cost;
    if (scratch.current_cost < scratch.best_cost) {
      scratch.best = scratch.current;
      scratch.best_cost = scratch.current_cost;
    }
  }
  void revert(Scratch&) const {}
  State extract_best(Scratch& scratch) const {
    return std::move(scratch.best);
  }

  bool repair(State& state) const {
    const double storage_cap = problem_.cluster.storage_bytes_per_server;
    const double bandwidth_cap = problem_.cluster.bandwidth_bps_per_server;
    for (;;) {
      const ServerUsage usage = compute_usage(problem_, state);
      std::size_t worst = problem_.cluster.num_servers;
      for (std::size_t s = 0; s < problem_.cluster.num_servers; ++s) {
        if (usage.storage_bytes[s] > storage_cap ||
            usage.bandwidth_bps[s] > bandwidth_cap) {
          worst = s;
          break;
        }
      }
      if (worst == problem_.cluster.num_servers) return true;

      std::vector<std::size_t> hosted = videos_on_server(state, worst);
      std::sort(hosted.begin(), hosted.end(),
                [&](std::size_t a, std::size_t b) {
                  if (state.bitrate_index[a] != state.bitrate_index[b]) {
                    return state.bitrate_index[a] < state.bitrate_index[b];
                  }
                  return a > b;
                });
      bool acted = false;
      for (std::size_t video : hosted) {
        if (state.bitrate_index[video] > 0) {
          --state.bitrate_index[video];
          acted = true;
          break;
        }
        if (state.placement[video].size() > 1) {
          auto& servers = state.placement[video];
          servers.erase(std::find(servers.begin(), servers.end(), worst));
          acted = true;
          break;
        }
      }
      if (!acted) {
        return std::all_of(
            usage.storage_bytes.begin(), usage.storage_bytes.end(),
            [&](double b) { return b <= storage_cap; });
      }
    }
  }

 private:
  static std::vector<std::size_t> videos_on_server(
      const ScalableSolution& solution, std::size_t s) {
    std::vector<std::size_t> videos;
    for (std::size_t i = 0; i < solution.placement.size(); ++i) {
      const auto& servers = solution.placement[i];
      if (std::find(servers.begin(), servers.end(), s) != servers.end()) {
        videos.push_back(i);
      }
    }
    return videos;
  }

  const ScalableProblem& problem_;
  SaSolverOptions options_;
};

struct RunStats {
  double seconds = 0.0;
  double moves_per_sec = 0.0;
  std::size_t iterations = 0;
  double objective = 0.0;
  std::size_t moves_noop = 0;
};

/// Aborts on an empty result, so a timed anneal cannot be optimized away.
void keep_live(const AnnealResult<ScalableSolution>& result) {
  if (result.temperature_steps == 0) std::abort();
}

/// Best-of-`reps` headline timing (the run is deterministic in the seed, so
/// repetitions only shave off scheduler noise).
template <typename Problem>
RunStats run_annealer(const Problem& sa, const ScalableProblem& problem,
                      const AnnealOptions& options, std::uint64_t seed,
                      std::size_t reps) {
  RunStats stats;
  stats.seconds = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = anneal_parallel_tempering(sa, seed, 1, options);
    const auto stop = std::chrono::steady_clock::now();
    stats.seconds = std::min(
        stats.seconds, std::chrono::duration<double>(stop - start).count());
    stats.iterations =
        result.temperature_steps * options.moves_per_temperature;
    if (rep + 1 == reps) {
      stats.objective = solution_objective(problem, result.best_state);
      stats.moves_noop = result.moves_noop;
    }
  }
  stats.moves_per_sec =
      static_cast<double>(stats.iterations) / std::max(stats.seconds, 1e-12);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("vodrep_sa_hotpath",
                 "SA hot path: copy-based baseline vs incremental "
                 "delta-evaluation, same schedule, moves/sec");
  flags.add_int("videos", 1000, "catalogue size M");
  flags.add_int("servers", 16, "cluster size N");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("lambda", 30.0, "peak arrival rate, requests/minute");
  flags.add_double("storage-gb", 120.0, "per-server storage budget, GB");
  flags.add_int("temp-steps", 60, "temperature steps (fixed, stall disabled)");
  flags.add_int("moves", 200, "moves per temperature step");
  flags.add_int("seed", 2002, "annealer seed");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    const bool quick = flags.get_bool("quick");
    const auto m =
        quick ? 120u : static_cast<std::size_t>(flags.get_int("videos"));
    const auto n =
        quick ? 8u : static_cast<std::size_t>(flags.get_int("servers"));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

    ScalableProblem problem;
    problem.videos.duration_sec = units::minutes(90);
    problem.videos.popularity = zipf_popularity(m, flags.get_double("theta"));
    problem.cluster.num_servers = n;
    problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
    problem.cluster.storage_bytes_per_server =
        units::gigabytes(flags.get_double("storage-gb"));
    problem.ladder.rates_bps = {units::mbps(1), units::mbps(2),
                                units::mbps(3), units::mbps(4),
                                units::mbps(6), units::mbps(8)};
    problem.expected_peak_requests = flags.get_double("lambda") * 90.0;

    SaSolverOptions options;
    options.anneal.final_temperature = 1e-12;  // temp-steps bounds the run
    options.anneal.moves_per_temperature =
        static_cast<std::size_t>(flags.get_int("moves"));
    options.anneal.max_temperature_steps =
        quick ? 6 : static_cast<std::size_t>(flags.get_int("temp-steps"));
    options.anneal.stall_steps = 0;

    std::cout << "== SA hot path: full recompute vs incremental "
                 "delta-evaluation ==\n"
              << "M=" << m << " videos, N=" << n << " servers, "
              << options.anneal.max_temperature_steps << " temperature steps x "
              << options.anneal.moves_per_temperature << " moves\n\n";

    const BaselineSaProblem baseline(problem, options);
    const ScalableSaProblem incremental(problem, options);

    const RunStats copy_stats =
        run_annealer(baseline, problem, options.anneal, seed, quick ? 2 : 3);
    const RunStats inc_stats =
        run_annealer(incremental, problem, options.anneal, seed, 5);
    const double speedup = inc_stats.moves_per_sec / copy_stats.moves_per_sec;

    Table table({"path", "seconds", "moves_per_sec", "objective"});
    table.set_precision(3);
    table.add_row({std::string("copy_full_recompute"), copy_stats.seconds,
                   copy_stats.moves_per_sec, copy_stats.objective});
    table.add_row({std::string("incremental_delta"), inc_stats.seconds,
                   inc_stats.moves_per_sec, inc_stats.objective});
    table.print(std::cout);
    std::cout << "\nspeedup: " << speedup << "x  (noop moves skipped by the "
              << "incremental path: " << inc_stats.moves_noop << ")\n\n";

    // --- obs overhead guard: compiled-in-but-disabled must stay <3% ---
    // Best-of-reps per side over up to three measurement rounds: the guard
    // compares two near-identical hot loops, so each round adds samples
    // and the verdict stops at the first round that passes.
    const double min_total_sec = quick ? 0.2 : 1.6;
    const std::size_t max_reps = quick ? 25 : 9;
    const double iterations = static_cast<double>(
        options.anneal.max_temperature_steps *
        options.anneal.moves_per_temperature);
    const auto moves_per_sec = [&](double seconds) {
      return iterations / std::max(seconds, 1e-12);
    };
    const auto hookless_run = [&] {
      return anneal_without_hooks(incremental, seed, options.anneal);
    };
    const auto library_run = [&] {
      return anneal_parallel_tempering(incremental, seed, 1, options.anneal);
    };
    obs::TraceRecorder::global().set_enabled(false);
    {
      const auto hookless = hookless_run();
      const auto library = library_run();
      require(hookless.best_cost == library.best_cost &&
                  hookless.moves_proposed == library.moves_proposed &&
                  hookless.moves_accepted == library.moves_accepted &&
                  hookless.moves_noop == library.moves_noop &&
                  hookless.temperature_steps == library.temperature_steps,
              "sa_hotpath: the hook-free build diverged from the library");
    }
    std::array<double, 2> hook_seconds = {1e300, 1e300};
    const auto guard_passes = [&] {
      return moves_per_sec(hook_seconds[1]) >=
             0.97 * moves_per_sec(hook_seconds[0]);
    };
    for (int round = 0; round < 3; ++round) {
      time_paired([&] { keep_live(hookless_run()); },
                  [&] { keep_live(library_run()); }, min_total_sec, max_reps,
                  hook_seconds);
      if (guard_passes()) break;
    }
    const double hookless_mps = moves_per_sec(hook_seconds[0]);
    const double obs_off_mps = moves_per_sec(hook_seconds[1]);
    obs::TraceRecorder::global().set_enabled(true);
    const double obs_on_mps =
        run_annealer(incremental, problem, options.anneal, seed, max_reps)
            .moves_per_sec;
    obs::TraceRecorder::global().set_enabled(false);
    obs::TraceRecorder::global().clear();

    const double off_overhead_pct =
        100.0 * (1.0 - obs_off_mps / hookless_mps);
    const double on_overhead_pct = 100.0 * (1.0 - obs_on_mps / hookless_mps);
    const bool guard_pass = guard_passes();
    std::cout << "obs overhead on the one-chain driver (best-of-reps):\n"
              << "  compiled out:           " << hookless_mps << " moves/s\n"
              << "  compiled in, disabled:  " << obs_off_mps << " moves/s  ("
              << off_overhead_pct << " % overhead)\n"
              << "  enabled:                " << obs_on_mps << " moves/s  ("
              << on_overhead_pct << " % overhead)\n"
              << "  guard (<3% disabled):   "
              << (guard_pass ? "PASS" : "FAIL") << "\n\n";

    // --- parallel-tempering chains axis: aggregate moves/sec vs K ---------
    // Each chain is an independent Metropolis loop over its own journaled
    // state, so aggregate throughput is what a multi-core box scales;
    // hardware_threads in the JSON says how much parallelism this machine
    // could actually supply for the recorded numbers.
    const unsigned hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(hardware_threads);
    const std::vector<std::size_t> chain_counts =
        quick ? std::vector<std::size_t>{1, 2, 4}
              : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
    struct ChainsPoint {
      std::size_t chains = 0;
      std::size_t pool_threads = 0;  // pool workers used; 1 = inline run
      double aggregate_mps = 0.0;
      double per_chain_mps = 0.0;
    };
    std::vector<ChainsPoint> chains_axis;
    Table pt_table({"chains", "pool_threads", "threads",
                    "aggregate_moves_per_sec", "per_chain_moves_per_sec"});
    pt_table.set_precision(3);
    for (const std::size_t k : chain_counts) {
      const std::size_t reps = quick ? 3 : 3;
      double best_seconds = 1e300;
      std::size_t total_moves = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const auto result = anneal_parallel_tempering(
            incremental, seed, k, options.anneal, k > 1 ? &pool : nullptr);
        const auto stop = std::chrono::steady_clock::now();
        if (result.temperature_steps == 0) std::abort();
        total_moves = result.moves_proposed + result.moves_noop;
        best_seconds = std::min(
            best_seconds,
            std::chrono::duration<double>(stop - start).count());
      }
      ChainsPoint point;
      point.chains = k;
      point.pool_threads = k > 1 ? pool.size() : 1;
      point.aggregate_mps =
          static_cast<double>(total_moves) / std::max(best_seconds, 1e-12);
      point.per_chain_mps = point.aggregate_mps / static_cast<double>(k);
      chains_axis.push_back(point);
      pt_table.add_row({static_cast<double>(k),
                        static_cast<double>(point.pool_threads),
                        static_cast<double>(hardware_threads),
                        point.aggregate_mps, point.per_chain_mps});
    }
    std::cout << "parallel tempering scaling (" << hardware_threads
              << " hardware thread(s)):\n";
    pt_table.print(std::cout);
    std::cout << "\n";

    // --- journal-depth axis: cost of rolling back composite moves ---------
    // Applies `depth` journaled primitives then rolls all of them back;
    // ops/sec counts primitives, so the column tracks how rollback cost
    // scales with transaction depth (repairs stack several primitives on
    // top of the triggering move).
    const std::vector<std::size_t> journal_depths = {1, 2, 4, 8, 16, 32};
    struct JournalPoint {
      std::size_t depth = 0;
      double ops_per_sec = 0.0;
    };
    std::vector<JournalPoint> journal_axis;
    Table journal_table({"journal_depth", "ops_per_sec"});
    journal_table.set_precision(3);
    {
      IncrementalState inc(problem, lowest_rate_round_robin(problem));
      Rng jrng(seed);
      const std::size_t total_ops = quick ? 20'000 : 200'000;
      const std::size_t ladder_size = problem.ladder.size();
      for (const std::size_t depth : journal_depths) {
        const std::size_t rounds = std::max<std::size_t>(total_ops / depth, 64);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t round = 0; round < rounds; ++round) {
          const auto mark = inc.checkpoint();
          for (std::size_t op = 0; op < depth; ++op) {
            const auto video =
                static_cast<std::size_t>(jrng.uniform_index(m));
            inc.set_bitrate(video,
                            (inc.bitrate_index(video) + 1) % ladder_size);
          }
          inc.rollback(mark);
        }
        const auto stop = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        JournalPoint point;
        point.depth = depth;
        point.ops_per_sec = static_cast<double>(rounds * depth) /
                            std::max(seconds, 1e-12);
        journal_axis.push_back(point);
        journal_table.add_row(
            {static_cast<double>(depth), point.ops_per_sec});
      }
    }
    std::cout << "journal rollback cost by transaction depth:\n";
    journal_table.print(std::cout);
    std::cout << "\n";

    std::cout << "{\"bench\":\"sa_hotpath\",\"videos\":" << m
              << ",\"servers\":" << n
              << ",\"iterations\":" << inc_stats.iterations
              << ",\"copy_seconds\":" << copy_stats.seconds
              << ",\"copy_moves_per_sec\":" << copy_stats.moves_per_sec
              << ",\"incremental_seconds\":" << inc_stats.seconds
              << ",\"incremental_moves_per_sec\":" << inc_stats.moves_per_sec
              << ",\"speedup\":" << speedup
              << ",\"copy_objective\":" << copy_stats.objective
              << ",\"incremental_objective\":" << inc_stats.objective
              << ",\"incremental_noop_moves\":" << inc_stats.moves_noop
              << ",\"hookless_moves_per_sec\":" << hookless_mps
              << ",\"obs_off_moves_per_sec\":" << obs_off_mps
              << ",\"obs_on_moves_per_sec\":" << obs_on_mps
              << ",\"obs_off_overhead_pct\":" << off_overhead_pct
              << ",\"obs_on_overhead_pct\":" << on_overhead_pct
              << ",\"obs_guard_pass\":" << (guard_pass ? "true" : "false")
              << ",\"hardware_threads\":" << hardware_threads
              << ",\"chains_axis\":[";
    for (std::size_t i = 0; i < chains_axis.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << "{\"chains\":"
                << chains_axis[i].chains
                << ",\"pool_threads\":" << chains_axis[i].pool_threads
                << ",\"threads\":" << hardware_threads
                << ",\"aggregate_moves_per_sec\":"
                << chains_axis[i].aggregate_mps
                << ",\"per_chain_moves_per_sec\":"
                << chains_axis[i].per_chain_mps << "}";
    }
    std::cout << "],\"journal_axis\":[";
    for (std::size_t i = 0; i < journal_axis.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << "{\"depth\":"
                << journal_axis[i].depth << ",\"ops_per_sec\":"
                << journal_axis[i].ops_per_sec << "}";
    }
    std::cout << "]}\n";
    if (!guard_pass) {
      std::cerr << "error: obs layer costs " << off_overhead_pct
                << " % moves/sec while disabled (budget: 3 %)\n";
      return EXIT_FAILURE;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
