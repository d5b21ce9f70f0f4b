// E17 / simulator validation against queueing theory.
//
// The cluster is a loss system: Erlang-B applies exactly (M/G/c/c is
// insensitive to the deterministic holding times).  Two closed forms
// bracket every layout —
//   * pooled (one system, N*B/b channels): what ideal wide striping gives;
//   * balanced split (N independent systems fed lambda/N): what perfectly
//     balanced replication gives.
// The harness compares both formulas against the corresponding simulations
// and places the zipf+slf layout inside the bracket, quantifying how close
// the paper's placement gets to the partitioned-bandwidth optimum — and
// why rejections exist below nominal capacity at all (arrival variance).
#include <cstdlib>
#include <iostream>

#include "src/analysis/erlang.h"
#include "src/core/pipeline.h"
#include "src/core/striping.h"
#include "src/exp/runner.h"
#include "src/exp/scenario.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"

int main(int argc, char** argv) {
  using namespace vodrep;
  CliFlags flags("vodrep_erlang_validation",
                 "Simulator vs Erlang-B loss formulas");
  flags.add_int("videos", 300, "catalogue size M");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("degree", 1.4, "replication degree");
  flags.add_int("runs", 30, "workload realizations per data point");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    PaperScenario scenario;
    scenario.num_videos = static_cast<std::size_t>(flags.get_int("videos"));
    scenario.theta = flags.get_double("theta");
    scenario.replication_degree = flags.get_double("degree");
    RunnerOptions runner;
    runner.runs = static_cast<std::size_t>(flags.get_int("runs"));
    if (flags.get_bool("quick")) {
      scenario.num_videos = 100;
      runner.runs = 8;
    }

    const std::size_t n = scenario.num_servers;
    const std::size_t channels_per_server = 450;  // 1.8 Gb/s / 4 Mb/s
    const std::size_t pooled_channels = n * channels_per_server;
    const double holding_min = scenario.duration_minutes;

    const auto replication = make_replication_policy("zipf");
    const auto placement = make_placement_policy("slf");
    const Layout replica_layout =
        provision(scenario.problem(), *replication, *placement,
                  scenario.replica_budget())
            .layout;
    const HybridLayout wide =
        make_striped_layout(scenario.num_videos, n, n);

    std::cout << "== Erlang-B validation: theory vs discrete-event "
                 "simulation ==\n"
              << "pooled system: " << pooled_channels
              << " channels; per-server: " << channels_per_server
              << " channels; holding time " << holding_min << " min\n\n";

    Table table({"arrival_rate_per_min", "offered_erlangs",
                 "ErlangB_pooled%", "sim_wide_striping%",
                 "ErlangB_split%", "sim_zipf_slf%"});
    table.set_precision(3);
    for (double rate : {36.0, 38.0, 40.0, 42.0, 44.0, 48.0}) {
      const double erlangs = rate * holding_min;  // lambda * T
      const double pooled = erlang_b(erlangs, pooled_channels);
      const double split =
          balanced_split_blocking(erlangs, n, channels_per_server);

      // Simulated wide striping (the pooled system realized in code).
      OnlineStats sim_wide;
      SimConfig config = scenario.sim_config();
      for (std::size_t run = 0; run < runner.runs; ++run) {
        Rng rng(runner.base_seed ^ (0x9e3779b97f4a7c15ULL * (run + 1)));
        const RequestTrace trace =
            generate_trace(rng, scenario.trace_spec(rate));
        sim_wide.add(
            simulate(HybridPolicy(wide, config), trace).rejection_rate());
      }
      const CellStats sim_replica =
          run_cell(replica_layout, config, scenario.trace_spec(rate), runner);

      table.add_row({rate, erlangs, 100.0 * pooled,
                     100.0 * sim_wide.mean(), 100.0 * split,
                     100.0 * sim_replica.rejection_rate.mean()});
    }
    table.print(std::cout);
    std::cout
        << "\nReading the table: the wide-striping simulation tracks the "
           "pooled Erlang-B\ncolumn and the zipf+slf layout sits between the "
           "pooled bound and the\nbalanced-split formula — the residual "
           "rejections below nominal capacity are\nthe arrival-variance "
           "floor Erlang-B predicts, not a placement defect.\n"
        << "(Caveat: Erlang-B is the steady-state loss; the simulated peak "
           "period starts\nempty and lasts one holding time, so simulated "
           "values run below the formula\nnear the knee.)\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
