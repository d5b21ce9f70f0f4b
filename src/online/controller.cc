#include "src/online/controller.h"

#include <cmath>

#include "src/core/pipeline.h"
#include "src/obs/trace.h"
#include "src/online/incremental_placement.h"
#include "src/util/error.h"

namespace vodrep {
namespace {

/// Add-one pseudo-count per video: a never-requested video keeps a small
/// positive estimate, so it keeps its one replica (Eq. 7).
constexpr double kEstimatorSmoothing = 1.0;

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "l1_distance: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

}  // namespace

AdaptiveController::AdaptiveController(
    const ControllerConfig& config,
    const std::vector<double>& initial_popularity_by_id)
    : config_(config),
      replication_(make_replication_policy(config.replication)),
      placement_(make_placement_policy(config.placement)),
      estimator_(initial_popularity_by_id.size(), config.estimator_decay,
                 kEstimatorSmoothing) {
  require(config.num_servers >= 1, "AdaptiveController: need a server");
  require(config.replan_threshold >= 0.0,
          "AdaptiveController: negative replan threshold");
  IdProvisioningResult initial = provision_by_id(
      initial_popularity_by_id, *replication_, *placement_,
      config.num_servers, config.budget, config.capacity_per_server);
  layout_ = std::move(initial.layout);
  plan_ = std::move(initial.plan);
  // Normalize the prior so later L1 comparisons are distribution-to-
  // distribution.
  double sum = 0.0;
  for (double p : initial_popularity_by_id) sum += p;
  acted_estimate_.reserve(initial_popularity_by_id.size());
  for (double p : initial_popularity_by_id) acted_estimate_.push_back(p / sum);
}

void AdaptiveController::observe_epoch(
    const std::vector<std::size_t>& video_counts) {
  require(video_counts.size() == layout_.num_videos(),
          "AdaptiveController: count vector size mismatch");
  VODREP_TRACE_SCOPE("online.observe_epoch");
  for (std::size_t video = 0; video < video_counts.size(); ++video) {
    if (video_counts[video] > 0) {
      estimator_.observe(video, video_counts[video]);
    }
  }
  estimator_.end_epoch();
}

AdaptationStep AdaptiveController::adapt(double now) {
  VODREP_TRACE_SCOPE("online.adapt");
  AdaptationStep step;
  const std::vector<double> estimate = estimator_.estimate();
  step.estimate_shift_l1 = l1_distance(estimate, acted_estimate_);
  if (step.estimate_shift_l1 < config_.replan_threshold) {
    if (timeline_ != nullptr) timeline_->annotate(now, "replan_skipped");
    return step;
  }

  IdProvisioningResult next;
  if (config_.incremental) {
    next.plan = replicate_by_id(estimate, *replication_, config_.num_servers,
                                config_.budget);
    next.layout = incremental_place(layout_, next.plan, estimate,
                                    config_.num_servers,
                                    config_.capacity_per_server);
  } else {
    next = provision_by_id(estimate, *replication_, *placement_,
                           config_.num_servers, config_.budget,
                           config_.capacity_per_server);
  }
  step.migration = plan_migration(layout_, next.layout);
  step.replanned = true;
  if (timeline_ != nullptr) timeline_->annotate(now, "replan");
  layout_ = std::move(next.layout);
  plan_ = std::move(next.plan);
  acted_estimate_ = estimate;
  return step;
}

}  // namespace vodrep
