#include "src/online/adaptation_study.h"

#include <cmath>

#include "src/core/pipeline.h"
#include "src/obs/trace.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {

Table run_adaptation_study(const AdaptationStudyConfig& config,
                           std::uint64_t seed,
                           obs::TimeseriesCollector* timeline) {
  Rng rng(seed);
  const std::size_t m = config.num_videos;
  const auto budget = static_cast<std::size_t>(
      std::llround(config.replication_degree * static_cast<double>(m)));
  const std::size_t capacity =
      (budget + config.num_servers - 1) / config.num_servers;
  const double replica_bytes =
      units::video_bytes(config.duration_sec, config.bitrate_bps);

  SimConfig sim;
  sim.num_servers = config.num_servers;
  sim.bandwidth_bps_per_server = config.server_bandwidth_bps;
  sim.stream_bitrate_bps = config.bitrate_bps;
  sim.video_duration_sec = config.duration_sec;

  const auto replication = make_replication_policy("adams");
  const auto placement = make_placement_policy("slf");

  // Epoch-0 truth: a Zipf law over ids in rank order (id == initial rank).
  const std::vector<double> initial_truth = zipf_popularity(m, config.theta);
  std::vector<double> truth = initial_truth;

  // Static strategy: provisioned once from the initial truth.
  const Layout static_layout =
      provision_by_id(initial_truth, *replication, *placement,
                      config.num_servers, budget, capacity)
          .layout;

  // Adaptive strategy: the controller starts from the same prior.
  ControllerConfig controller_config;
  controller_config.num_servers = config.num_servers;
  controller_config.budget = budget;
  controller_config.capacity_per_server = capacity;
  controller_config.estimator_decay = config.estimator_decay;
  controller_config.replan_threshold = config.replan_threshold;
  controller_config.incremental = config.incremental_placement;
  AdaptiveController controller(controller_config, initial_truth);
  controller.set_timeline(timeline);

  Table table({"epoch", "churn_vs_day0", "reject%_static", "reject%_adaptive",
               "reject%_oracle", "migrated_GB", "copy_minutes"});
  table.set_precision(2);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    VODREP_TRACE_SCOPE("study.epoch");
    if (epoch > 0) truth = apply_drift(rng, std::move(truth), config.drift);

    TraceSpec spec;
    spec.arrival_rate = config.arrival_rate_per_sec;
    spec.horizon = config.duration_sec;
    spec.popularity = truth;
    const RequestTrace trace = generate_trace(rng, spec);

    const Layout oracle_layout =
        provision_by_id(truth, *replication, *placement, config.num_servers,
                        budget, capacity)
            .layout;

    // One single-shot engine per replay; the three strategies share the
    // trace so the comparison is paired.  Only the adaptive replay records
    // into the study timeline: epoch e lands at global times
    // [e*duration, (e+1)*duration) via the collector's time offset.
    auto replay = [&](const Layout& layout, bool on_timeline) {
      SimOptions options;
      if (on_timeline && timeline != nullptr) {
        timeline->set_time_offset(static_cast<double>(epoch) *
                                  config.duration_sec);
        options.timeline = timeline;
      }
      return simulate(ReplicatedPolicy(layout, sim), trace, options);
    };
    const SimResult static_result = replay(static_layout, false);
    const SimResult adaptive_result = replay(controller.layout(), true);
    const SimResult oracle_result = replay(oracle_layout, false);

    // Close the adaptive loop: learn from what was observed, re-provision,
    // and account for the migration the new layout costs.
    controller.observe_epoch(trace.video_counts(m));
    const AdaptationStep step =
        controller.adapt(static_cast<double>(epoch + 1) * config.duration_sec);
    const double migrated_gb =
        units::to_gigabytes(step.migration.bytes_moved(replica_bytes));
    const double copy_minutes = units::to_minutes(
        step.migration.copy_time_sec(replica_bytes, config.backbone_bps));

    table.add_row({static_cast<long long>(epoch),
                   ranking_churn(initial_truth, truth),
                   100.0 * static_result.rejection_rate(),
                   100.0 * adaptive_result.rejection_rate(),
                   100.0 * oracle_result.rejection_rate(), migrated_gb,
                   copy_minutes});
  }
  return table;
}

}  // namespace vodrep
