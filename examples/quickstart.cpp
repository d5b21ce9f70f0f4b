// Quickstart: provision a VoD cluster and measure its rejection rate.
//
// Walks the full public API in ~40 lines of logic:
//   1. describe the cluster and the video catalogue,
//   2. compute a replication plan (Zipf-interval) and a placement (SLF),
//   3. generate a synthetic peak-period workload,
//   4. replay it through the simulator and read off the service metrics.
#include <cstdlib>
#include <iostream>

#include "src/core/objective.h"
#include "src/core/pipeline.h"
#include "src/exp/scenario.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"

int main() {
  using namespace vodrep;
  try {
    // 1. The paper's cluster: 8 servers, 1.8 Gb/s each, 300 videos of 90
    //    minutes at 4 Mb/s, Zipf popularity with skew 0.75, storage sized
    //    for 1.2 replicas per video on average.
    PaperScenario scenario;
    scenario.theta = 0.75;
    scenario.replication_degree = 1.2;

    // 2. Replication + placement.
    const auto replication = make_replication_policy("zipf");
    const auto placement = make_placement_policy("slf");
    const ProvisioningResult provisioned =
        provision(scenario.problem(), *replication, *placement,
                  scenario.replica_budget());
    std::cout << "provisioned " << provisioned.plan.total_replicas()
              << " replicas (degree " << provisioned.plan.degree()
              << "), expected-load imbalance L = "
              << imbalance_max_relative(provisioned.expected_loads) << "\n";

    // 3. One peak period of Poisson arrivals at 35 requests/minute.
    Rng rng(/*seed=*/7);
    const RequestTrace trace = generate_trace(rng, scenario.trace_spec(35.0));
    std::cout << "generated " << trace.size()
              << " requests over 90 minutes\n";

    // 4. Replay through the simulator and report.  `ReplicatedPolicy` is
    //    the paper's whole-replica organization; striped and hybrid
    //    policies plug into the same simulate() call.
    const SimResult result = simulate(
        ReplicatedPolicy(provisioned.layout, scenario.sim_config()), trace);
    std::cout << "rejection rate: " << 100.0 * result.rejection_rate()
              << " %\n"
              << "time-averaged load imbalance (Eq. 2): "
              << 100.0 * result.mean_imbalance_eq2 << " %\n"
              << "mean outgoing-link utilization: "
              << 100.0 * result.mean_utilization() << " %\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
