// Adaptive replication controller: the run-time loop the paper's Section
// 4.1.2 alludes to ("the replication algorithms can be applied for dynamic
// replication during run-time").
//
// The controller owns the current layout.  After each epoch (e.g. a daily
// peak period) it folds the epoch's observed per-video request counts into
// its popularity estimator and, when the estimate has moved enough,
// re-provisions with the configured replication/placement policies and
// emits the migration plan that realizes the new layout.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/obs/timeseries.h"
#include "src/online/estimator.h"
#include "src/online/migration.h"
#include "src/online/provisioner.h"

namespace vodrep {

struct ControllerConfig {
  std::string replication = "adams";
  std::string placement = "slf";
  std::size_t num_servers = 0;
  std::size_t budget = 0;               ///< cluster-wide replica budget
  std::size_t capacity_per_server = 0;  ///< replica slots per server
  double estimator_decay = 0.5;
  /// Hysteresis: skip re-provisioning when the L1 distance between the new
  /// estimate and the estimate last acted upon is below this threshold.
  /// 0 re-provisions every epoch.
  double replan_threshold = 0.0;
  /// Realize new plans with migration-aware incremental placement (keep
  /// replicas in place, move only what the plan demands).  When false, every
  /// replan runs the configured placement policy from scratch — maximum
  /// balance, maximum migration traffic.
  bool incremental = true;
};

/// Result of one adaptation step.
struct AdaptationStep {
  bool replanned = false;
  MigrationPlan migration;          ///< empty when not replanned
  double estimate_shift_l1 = 0.0;   ///< L1 distance that triggered (or not)
};

class AdaptiveController {
 public:
  /// Provisions the initial layout from `initial_popularity_by_id` (e.g. a
  /// forecast, or uniform when nothing is known).
  AdaptiveController(const ControllerConfig& config,
                     const std::vector<double>& initial_popularity_by_id);

  /// The layout currently deployed.
  [[nodiscard]] const Layout& layout() const { return layout_; }
  /// The replication plan currently deployed (by video id).
  [[nodiscard]] const ReplicationPlan& plan() const { return plan_; }

  /// Feeds one epoch of observed per-video request counts (indexed by id)
  /// into the estimator and closes the estimator epoch.
  void observe_epoch(const std::vector<std::size_t>& video_counts);

  /// Re-provisions from the current estimate if it moved beyond the
  /// threshold; returns what happened and the migration plan to apply.
  /// `now` is the *global* simulation time of the epoch boundary, used only
  /// to annotate an attached timeline ("replan" / "replan_skipped").
  [[nodiscard]] AdaptationStep adapt(double now = 0.0);

  /// Attaches a timeline collector (borrowed, may be null) so each adapt()
  /// call leaves a replan annotation at its epoch boundary.
  void set_timeline(obs::TimeseriesCollector* timeline) {
    timeline_ = timeline;
  }

  /// Current popularity estimate by video id (for reporting).
  [[nodiscard]] std::vector<double> estimate() const {
    return estimator_.estimate();
  }

 private:
  ControllerConfig config_;
  std::unique_ptr<ReplicationPolicy> replication_;
  std::unique_ptr<PlacementPolicy> placement_;
  PopularityEstimator estimator_;
  Layout layout_;
  ReplicationPlan plan_;
  std::vector<double> acted_estimate_;  ///< estimate behind the live layout
  obs::TimeseriesCollector* timeline_ = nullptr;  ///< borrowed, may be null
};

}  // namespace vodrep
