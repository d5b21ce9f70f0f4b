// Adaptive operations: wiring the online re-replication loop.
//
// Shows the control loop an operator would run around the library:
//   deploy initial layout -> each day: serve the peak, feed observed
//   request counts to the controller, ask it whether to re-provision, and
//   apply the returned migration plan during the night trough.
// A replan threshold keeps the controller from churning replicas on
// estimation noise.
#include <cstdlib>
#include <iostream>

#include "src/online/controller.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/drift.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

int main() {
  using namespace vodrep;
  try {
    constexpr std::size_t kVideos = 150;
    constexpr std::size_t kServers = 8;
    const double replica_bytes =
        units::video_bytes(units::minutes(90), units::mbps(4));

    // Deploy: provision from a popularity forecast (here: a Zipf prior).
    ControllerConfig config;
    config.num_servers = kServers;
    config.budget = 180;                    // degree 1.2
    config.capacity_per_server = 23;
    config.replan_threshold = 0.15;         // ignore sub-15% L1 estimate drift
    const auto forecast = zipf_popularity(kVideos, 0.75);
    AdaptiveController controller(config, forecast);

    SimConfig sim;
    sim.num_servers = kServers;
    sim.bandwidth_bps_per_server = units::gbps(1.8);
    sim.stream_bitrate_bps = units::mbps(4);
    sim.video_duration_sec = units::minutes(90);

    // Operate: 10 daily peaks with the catalogue drifting underneath.
    Rng rng(2026);
    std::vector<double> truth = forecast;
    Table log({"day", "requests", "reject%", "replanned", "copies",
               "migrated_GB", "copy_min_over_1.8Gbps"});
    log.set_precision(2);
    for (int day = 0; day < 10; ++day) {
      truth = apply_drift(rng, std::move(truth),
                          DriftSpec{DriftKind::kRankSwap, 0.08});
      TraceSpec spec;
      spec.arrival_rate = units::per_minute(38);
      spec.horizon = units::minutes(90);
      spec.popularity = truth;
      const RequestTrace trace = generate_trace(rng, spec);

      // Serve today's peak on the currently deployed layout.
      const SimResult result =
          simulate(ReplicatedPolicy(controller.layout(), sim), trace);

      // Close the loop: learn, decide, and (maybe) migrate overnight.
      controller.observe_epoch(trace.video_counts(kVideos));
      const AdaptationStep step = controller.adapt();

      log.add_row(
          {static_cast<long long>(day), static_cast<long long>(trace.size()),
           100.0 * result.rejection_rate(),
           std::string(step.replanned ? "yes" : "no"),
           static_cast<long long>(step.migration.copies.size()),
           units::to_gigabytes(step.migration.bytes_moved(replica_bytes)),
           units::to_minutes(
               step.migration.copy_time_sec(replica_bytes, units::gbps(1.8)))});
    }
    std::cout << "== Ten days of adaptive VoD fleet operations ==\n\n";
    log.print(std::cout);
    std::cout << "\nThe controller replans only when its popularity estimate "
                 "has moved past the\nthreshold, and the incremental "
                 "placement keeps each overnight migration to a\nhandful of "
                 "replica copies.\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
