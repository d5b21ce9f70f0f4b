// E7 / Section 4.3: the simulated-annealing solver for scalable encoding
// bit rates.  The paper omits its SA results for space; this harness
// reports what that section would have shown: the achieved objective,
// mean encoding bit rate, replication degree, and load imbalance as the
// storage budget grows, against the lowest-rate round-robin initial
// solution and a fixed-rate Adams+SLF reference.
#include <cstdlib>
#include <iostream>

#include "src/core/adams_replication.h"
#include "src/core/greedy_scalable.h"
#include "src/core/sa_solver.h"
#include "src/core/slf_placement.h"
#include "src/exp/scenario.h"
#include "src/util/cli.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace {

using namespace vodrep;

double mean_rate_mbps(const ScalableSolution& s, const BitrateLadder& ladder) {
  OnlineStats stats;
  for (double rate : s.bitrates(ladder)) stats.add(units::to_mbps(rate));
  return stats.mean();
}

double degree_of(const ScalableSolution& s) {
  OnlineStats stats;
  for (const auto& servers : s.placement) {
    stats.add(static_cast<double>(servers.size()));
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("vodrep_sa_scalable",
                 "Section 4.3: simulated annealing for scalable bit rates");
  flags.add_int("videos", 100, "catalogue size M");
  flags.add_int("servers", 8, "cluster size N");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("lambda", 30.0, "peak arrival rate, requests/minute");
  flags.add_int("seed", 2002, "annealer seed");
  flags.add_int("chains", 4,
                "parallel-tempering chains (replica exchanges between "
                "staggered temperatures)");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    const auto m = static_cast<std::size_t>(flags.get_int("videos"));
    const auto n = static_cast<std::size_t>(flags.get_int("servers"));
    const double theta = flags.get_double("theta");
    const double lambda_per_min = flags.get_double("lambda");
    const bool quick = flags.get_bool("quick");

    ScalableProblem problem;
    problem.videos.duration_sec = units::minutes(90);
    problem.videos.popularity = zipf_popularity(quick ? 40 : m, theta);
    problem.cluster.num_servers = n;
    problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
    problem.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(3),
                                units::mbps(4), units::mbps(6),
                                units::mbps(8)};
    problem.expected_peak_requests = lambda_per_min * 90.0;
    problem.weights.alpha = 1.0;
    problem.weights.beta = 1.0;

    SaSolverOptions options;
    options.anneal.initial_temperature = 1.0;
    options.anneal.moves_per_temperature = quick ? 60 : 400;
    options.anneal.final_temperature = 1e-3;
    options.anneal.stall_steps = quick ? 15 : 60;
    options.chains =
        quick ? 2 : static_cast<std::size_t>(flags.get_int("chains"));
    ThreadPool pool;

    std::cout << "== Scalable-bit-rate replication and placement via "
                 "simulated annealing ==\n"
              << "M=" << problem.videos.count() << " videos, N=" << n
              << " servers, lambda=" << lambda_per_min
              << " req/min, ladder {1,2,3,4,6,8} Mb/s\n\n";

    Table table({"storage_GB_per_server", "objective_initial",
                 "objective_greedy", "objective_sa_paper_nbhd",
                 "objective_sa", "mean_rate_Mbps", "mean_degree", "L_eq2%",
                 "feasible"});
    table.set_precision(3);
    const double storages[] = {30.0, 60.0, 120.0, 240.0};
    for (double storage_gb : storages) {
      problem.cluster.storage_bytes_per_server = units::gigabytes(storage_gb);
      const ScalableSolution initial = lowest_rate_round_robin(problem);
      const double initial_objective = solution_objective(problem, initial);
      const double greedy_objective =
          solution_objective(problem, greedy_scalable(problem));
      // The paper's neighborhood verbatim (growth + repair only): it stalls
      // on the storage-full plateau — see EXPERIMENTS.md E7.
      SaSolverOptions paper_options = options;
      paper_options.shrink_probability = 0.0;
      const SaSolverResult paper_result = solve_scalable(
          problem, static_cast<std::uint64_t>(flags.get_int("seed")),
          paper_options, &pool);
      const SaSolverResult result = solve_scalable(
          problem, static_cast<std::uint64_t>(flags.get_int("seed")), options,
          &pool);
      const ServerUsage usage = compute_usage(problem, result.solution);
      table.add_row(
          {storage_gb, initial_objective, greedy_objective,
           paper_result.objective, result.objective,
           mean_rate_mbps(result.solution, problem.ladder),
           degree_of(result.solution),
           100.0 * imbalance_max_relative(usage.bandwidth_bps),
           std::string(result.feasible ? "yes" : "no")});
    }
    table.print(std::cout);

    // Fixed-rate reference: everything at 4 Mb/s, optimal replication +
    // SLF placement, at the largest storage point.
    std::cout << "\nfixed-rate (4 Mb/s) Adams+SLF reference at 240 GB: ";
    {
      FixedRateProblem fixed;
      fixed.videos = problem.videos;
      fixed.cluster = problem.cluster;
      fixed.cluster.storage_bytes_per_server = units::gigabytes(240);
      fixed.bitrate_bps = units::mbps(4);
      const AdamsReplication adams;
      const std::size_t budget = std::min(
          fixed.total_replica_capacity(), fixed.videos.count() * n);
      const ReplicationPlan plan =
          adams.replicate(fixed.videos.popularity, n, budget);
      std::cout << "degree " << plan.degree() << ", mean rate 4.000 Mb/s\n";
    }
    std::cout
        << "\nThe SA solver trades encoding quality against replication "
           "degree as storage\ntightens — the paper's central "
           "quality/availability trade-off.  Note the\nobjective_sa_paper_"
           "nbhd column: the neighborhood exactly as the paper states\nit "
           "(growth moves + repair) stalls on the storage-full plateau far "
           "below the\ngreedy allocator; adding explicit shrink moves "
           "(objective_sa) lets annealing\nre-pack storage and pass greedy "
           "at sufficient budget.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
