// The obs-free baseline for the vodrep_sim_hotpath disabled-overhead guard:
// SimEngine (src/sim/engine.{h,cc}) and ReplicatedPolicy
// (src/sim/replicated_policy.{h,cc}) copied verbatim with every
// observability hook removed — no trace scopes, no dispatch histogram, no
// timeline/event-log pointer tests, no per-event tallies, no rejection
// attribution, no metrics export.
//
// The copies deliberately live in their own translation units, split the
// same way as the library (one engine TU, one policy TU): the guard must
// price the dormant obs hooks, not compiler luck.  When the baseline was
// defined inside the benchmark's own TU, the optimizer devirtualized and
// inlined its policy calls — an advantage the library engine can never
// receive, because its policies live in other TUs — and the measured
// "overhead" was mostly that inlining asymmetry (5-15% phantom cost vs
// ~1-2% for the real dormant hooks).  Keeping the baseline's TU boundaries
// congruent with the library's makes both sides pay identical virtual
// dispatch, so the difference is the instrumentation alone.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/dispatcher.h"
#include "src/sim/engine.h"  // SimConfig / SimResult / PolicyDecision
#include "src/sim/event_heap.h"
#include "src/sim/server.h"
#include "src/sim/stream_table.h"
#include "src/util/stats.h"
#include "src/workload/trace.h"

namespace vodrep::noobs {

class NoObsSimEngine;

/// StoragePolicy's shape with the engine type swapped; kept abstract and
/// non-local so the policy calls stay genuinely virtual (see file comment).
class NoObsPolicy {
 public:
  NoObsPolicy() = default;
  NoObsPolicy(const NoObsPolicy&) = delete;
  NoObsPolicy& operator=(const NoObsPolicy&) = delete;
  virtual ~NoObsPolicy() = default;
  virtual void bind(NoObsSimEngine& engine) = 0;
  virtual PolicyDecision dispatch(const Request& request) = 0;
  virtual void on_departure(std::size_t stream) = 0;
  virtual std::size_t on_crash(std::size_t server) = 0;
};

class NoObsSimEngine {
 public:
  explicit NoObsSimEngine(const SimConfig& config);

  [[nodiscard]] SimResult run(NoObsPolicy& policy, const RequestTrace& trace);

  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  [[nodiscard]] const std::vector<StreamingServer>& servers() const {
    return servers_;
  }
  [[nodiscard]] const StreamingServer& server(std::size_t s) const {
    return servers_[s];
  }

  void admit(std::size_t s, double bitrate_bps);
  void release(std::size_t s, double bitrate_bps);
  std::size_t fail(std::size_t s);

  EventHeap::Id schedule_departure(double time, std::size_t stream);
  void cancel_departure(EventHeap::Id id);

 private:
  void advance_events(NoObsPolicy& policy, double now);
  void integrate_to(double t);
  void pre_load_change(std::size_t s);
  void post_load_change(std::size_t s);
  [[nodiscard]] double current_max_utilization() const;

  SimConfig config_;
  std::vector<StreamingServer> servers_;
  std::vector<double> capacities_bps_;
  EventHeap departures_;
  std::size_t next_failure_ = 0;
  double now_ = 0.0;
  std::vector<double> utilization_;
  double utilization_sum_ = 0.0;
  double utilization_sumsq_ = 0.0;
  mutable std::size_t max_server_ = 0;
  mutable bool max_dirty_ = false;
  std::vector<double> busy_integral_;
  std::vector<double> busy_since_;
  TimeWeightedMean imbalance_eq2_;
  TimeWeightedMean imbalance_cv_;
  TimeWeightedMean imbalance_capacity_;
  double peak_eq2_ = 0.0;
  SimResult result_;
};

/// ReplicatedPolicy minus the rejection-reason attribution (an obs-era
/// addition the guard prices on the library side).
class NoObsReplicatedPolicy final : public NoObsPolicy {
 public:
  NoObsReplicatedPolicy(const Layout& layout, const SimConfig& config);

  void bind(NoObsSimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;

 private:
  struct Stream {
    std::size_t server = 0;
    bool via_backbone = false;
  };

  const SimConfig config_;
  Dispatcher dispatcher_;
  NoObsSimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
};

}  // namespace vodrep::noobs
