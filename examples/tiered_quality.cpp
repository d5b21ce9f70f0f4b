// Tiered quality: scalable encoding bit rates via simulated annealing.
//
// A service offering multiple quality tiers must decide, per video, which
// encoding rate to store and how many replicas to keep — the Section 4.3
// problem.  This example solves it for three operating regimes (storage-
// poor, balanced, storage-rich) and prints the per-tier composition of the
// resulting catalogue, showing how the winning titles flip with the binding
// constraint: storage pressure concentrates quality on hot titles, while
// bandwidth pressure pushes quality onto cold ones (whose streams are rare
// and therefore cheap).
#include <cstdlib>
#include <iostream>
#include <map>

#include "src/core/sa_solver.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

int main(int argc, char** argv) {
  using namespace vodrep;
  CliFlags flags("tiered_quality",
                 "Scalable-bit-rate catalogue design via simulated annealing");
  flags.add_int("videos", 60, "catalogue size M");
  flags.add_int("servers", 8, "cluster size N");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_int("seed", 42, "annealer seed");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    ScalableProblem problem;
    problem.videos.duration_sec = units::minutes(90);
    problem.videos.popularity = zipf_popularity(
        static_cast<std::size_t>(flags.get_int("videos")),
        flags.get_double("theta"));
    problem.cluster.num_servers =
        static_cast<std::size_t>(flags.get_int("servers"));
    problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
    problem.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4),
                                units::mbps(8)};
    problem.expected_peak_requests = 30.0 * 90.0;  // 30 req/min peak

    SaSolverOptions options;
    options.anneal.moves_per_temperature = 150;
    options.anneal.stall_steps = 30;

    std::cout << "== Tiered-quality catalogue design (ladder 1/2/4/8 Mb/s) "
                 "==\n\n";
    struct Regime {
      const char* name;
      double storage_gb;
    };
    for (const Regime regime : {Regime{"storage-poor", 15.0},
                                Regime{"balanced", 60.0},
                                Regime{"storage-rich", 300.0}}) {
      problem.cluster.storage_bytes_per_server =
          units::gigabytes(regime.storage_gb);
      const SaSolverResult result = solve_scalable(
          problem, static_cast<std::uint64_t>(flags.get_int("seed")), options);

      std::map<std::size_t, std::size_t> tier_counts;
      for (std::size_t idx : result.solution.bitrate_index) ++tier_counts[idx];
      double hot_rate = 0.0;
      double cold_rate = 0.0;
      const std::size_t m = problem.videos.count();
      for (std::size_t i = 0; i < m; ++i) {
        const double rate = units::to_mbps(
            problem.ladder.rates_bps[result.solution.bitrate_index[i]]);
        (i < m / 5 ? hot_rate : cold_rate) += rate;
      }
      hot_rate /= static_cast<double>(m / 5);
      cold_rate /= static_cast<double>(m - m / 5);

      std::cout << "-- " << regime.name << " (" << regime.storage_gb
                << " GB/server), objective " << result.objective
                << (result.feasible ? "" : " [bandwidth-soft]") << " --\n";
      Table table({"tier_Mbps", "videos"});
      for (std::size_t t = 0; t < problem.ladder.size(); ++t) {
        table.add_row({units::to_mbps(problem.ladder.rates_bps[t]),
                       static_cast<long long>(tier_counts[t])});
      }
      table.print(std::cout);
      std::cout << "mean rate of hottest 20%: " << hot_rate
                << " Mb/s, of the rest: " << cold_rate << " Mb/s\n\n";
    }
    std::cout
        << "Which titles win quality depends on the binding constraint: when "
           "STORAGE binds\n(storage-poor), quality concentrates on the hot "
           "titles that earn it; when\nBANDWIDTH binds (storage-rich), "
           "raising a hot title's rate costs lambda*T*p_i\nextra bits per "
           "second of peak traffic, so the optimizer buys cheap quality on\n"
           "cold titles instead — the two faces of the Eq. 1 trade-off.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
