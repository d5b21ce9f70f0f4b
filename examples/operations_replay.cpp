// Operations replay: persist a workload trace, then replay it against two
// dispatch configurations.
//
// Mirrors a production workflow: capture one representative peak period,
// store it, and evaluate configuration changes offline against the *same*
// workload.  Here the deployed layout is the coarse classification +
// round-robin combination and the change under evaluation is the paper's
// future-work request-redirection strategy, with the backbone budget swept
// to find the point of diminishing returns.
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/core/pipeline.h"
#include "src/exp/scenario.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/trace.h"

int main(int argc, char** argv) {
  using namespace vodrep;
  CliFlags flags("operations_replay",
                 "Trace capture/replay and redirection budget sweep");
  flags.add_int("videos", 200, "catalogue size M");
  flags.add_double("theta", 1.0, "Zipf skew");
  flags.add_double("lambda", 38.0, "arrival rate, requests/minute");
  flags.add_int("seed", 11, "trace seed");
  flags.add_string("replication", "classification",
                   "replication policy of the deployed layout");
  flags.add_string("placement", "round-robin",
                   "placement policy of the deployed layout");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    PaperScenario scenario;
    scenario.num_videos = static_cast<std::size_t>(flags.get_int("videos"));
    scenario.theta = flags.get_double("theta");
    scenario.replication_degree = 1.2;

    // Capture: generate one peak period and round-trip it through the trace
    // serialization (in production this would be a file).
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    const RequestTrace captured =
        generate_trace(rng, scenario.trace_spec(flags.get_double("lambda")));
    std::stringstream storage;
    save_trace(storage, captured);
    const RequestTrace trace = load_trace(storage);
    std::cout << "== Operations replay ==\ncaptured " << trace.size()
              << " requests at " << flags.get_double("lambda")
              << " req/min (cluster saturates at "
              << scenario.saturation_rate_per_min() << ")\n\n";

    // Default to the coarse classification+round-robin layout: a deployment
    // whose placement-induced imbalance leaves room for runtime redirection
    // to help (a zipf+slf layout is already balanced enough that redirection
    // barely fires — try --replication=zipf --placement=slf to see that).
    const auto replication =
        make_replication_policy(flags.get_string("replication"));
    const auto placement = make_placement_policy(flags.get_string("placement"));
    const Layout layout = provision(scenario.problem(), *replication,
                                    *placement, scenario.replica_budget())
                              .layout;

    // Replay: strict static round-robin, then redirection with a swept
    // backbone budget.  Identical workload -> differences are pure policy.
    Table table({"config", "backbone_Gbps", "reject%", "redirected%"});
    table.set_precision(2);
    auto replay = [&](const SimConfig& config) {
      return simulate(ReplicatedPolicy(layout, config), trace);
    };
    {
      const SimResult base = replay(scenario.sim_config());
      table.add_row({std::string("static round-robin"), 0.0,
                     100.0 * base.rejection_rate(), 0.0});
    }
    for (double backbone_gbps : {0.2, 0.5, 1.0, 2.0, 4.0}) {
      SimConfig config = scenario.sim_config();
      config.redirect = RedirectMode::kBackboneProxy;
      config.backbone_bps = units::gbps(backbone_gbps);
      const SimResult result = replay(config);
      table.add_row({std::string("redirect"), backbone_gbps,
                     100.0 * result.rejection_rate(),
                     100.0 * static_cast<double>(result.redirected) /
                         static_cast<double>(result.total_requests)});
    }
    table.print(std::cout);
    std::cout << "\nRedirection converts placement-induced rejections into "
                 "backbone traffic; the\nbudget sweep shows where extra "
                 "interconnect capacity stops paying off.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
