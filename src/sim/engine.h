// The unified discrete-event simulation core for the Section 5 evaluation.
//
// One event loop serves every storage organization: the engine owns the
// clock, the departure event heap, the per-server bandwidth state, failure
// injection, and the time-weighted metrics accumulator (Eq. 2/3 and the
// capacity-normalized imbalance, per-server utilization, and the
// rejection/redirect/batch/disruption counters).  What differs between
// organizations — how a request maps to bandwidth reservations, and what a
// server crash takes down with it — is delegated to a small StoragePolicy:
//
//   * ReplicatedPolicy (src/sim/replicated_policy.h) — whole streams on
//     one replica holder, with redirection/backbone-proxy/batching modes
//     and an optional edge prefix-cache tier in front of the origin;
//   * HybridPolicy (src/sim/hybrid_policy.h) — bitrate/k shares on every
//     member of a stripe group, round-robin over a video's replicated
//     groups; pure striping is its one-copy layout.
//
// Between events the per-server busy bandwidths are piecewise constant, so
// the load-imbalance degree L (Eqs. 2/3) is integrated exactly as a
// time-weighted mean.  Unlike the pre-engine simulators, which rescanned all
// N servers at every event, the engine maintains the utilization sum, sum of
// squares, and max incrementally (the max lazily, re-scanned only after the
// current max server's load drops — the same trick as the SA solver's
// IncrementalState), so an event costs O(1) amortized metric work.
//
// Policies MUST route every bandwidth mutation through the engine's
// admit/release/fail so the incremental state stays consistent; the engine
// exposes servers() read-only.
//
// Observability writes nothing per event: the SimResult is the replay's
// whole account, and per-request observation is the opt-in event log and
// load timeline, each behind a pointer test.
//
// Callers replay a trace through simulate() (src/sim/sharded_engine.h),
// which builds the engine from the policy's own SimConfig and runs the
// whole trace on it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/hooks.h"
#include "src/obs/timeseries.h"
#include "src/sim/dispatcher.h"  // RedirectMode / BatchingMode
#include "src/sim/event_heap.h"
#include "src/sim/server.h"
#include "src/util/stats.h"
#include "src/workload/trace.h"

namespace vodrep {

/// A scheduled server crash: at `time` the server drops every active stream
/// and admits nothing afterward (fail-stop, no recovery within the peak).
struct ServerFailure {
  double time = 0.0;
  std::size_t server = 0;
};

struct SimConfig {
  std::size_t num_servers = 0;
  double bandwidth_bps_per_server = 0.0;
  /// Optional heterogeneous fleet: when non-empty (size == num_servers),
  /// overrides bandwidth_bps_per_server per server.  The imbalance metrics
  /// are computed on link *utilizations* l_j / B_j, which coincides with the
  /// load-based definitions when the fleet is homogeneous (Eq. 2 is
  /// scale-invariant) and is the meaningful notion when it is not.
  std::vector<double> per_server_bandwidth_bps;
  double stream_bitrate_bps = 0.0;   ///< fixed encoding bit rate
  double video_duration_sec = 0.0;   ///< streams hold bandwidth this long
  RedirectMode redirect = RedirectMode::kNone;
  double backbone_bps = 0.0;         ///< proxy budget (kBackboneProxy only)
  /// Stream-sharing window in seconds (0 disables batching): a request
  /// whose scheduled replica started a stream of the same video within this
  /// window joins it instead of consuming a full new stream.
  double batching_window_sec = 0.0;
  /// Piggyback (free joins, the optimistic bound) or patching (joins pay a
  /// catch-up stream for the missed prefix).
  BatchingMode batching_mode = BatchingMode::kPiggyback;
  /// Fail-stop crashes to inject, sorted by time.  Used by the
  /// striping-vs-replication availability experiments.
  std::vector<ServerFailure> failures;

  /// Effective outgoing bandwidth of server `s`.
  [[nodiscard]] double bandwidth_of(std::size_t s) const {
    return per_server_bandwidth_bps.empty() ? bandwidth_bps_per_server
                                            : per_server_bandwidth_bps[s];
  }

  void validate() const;

  /// The redirect/backbone/batching fields model a per-request replica
  /// choice that only the replication organization has.  Policies for
  /// organizations without that choice (striping, hybrid stripe groups)
  /// call this to reject configurations that set them, instead of silently
  /// ignoring the fields as the pre-engine simulators did.
  void require_replication_extensions_unset(const char* organization) const;
};

/// Counters an edge-cache tier exposes to the engine (see ReplicatedPolicy's
/// tier).  A policy that owns a cache keeps one instance live for the whole
/// run and returns it from cache_stats(); the engine snapshots it into
/// SimResult and samples the cumulative hit/miss counts into the load
/// timeline.
struct CacheTierStats {
  std::uint64_t hits = 0;        ///< requests whose prefix was cache-resident
  std::uint64_t misses = 0;      ///< requests that had to fetch the prefix
  std::uint64_t evictions = 0;   ///< entries evicted to make room
  std::uint64_t insertions = 0;  ///< entries admitted into the cache
  double used_bytes = 0.0;       ///< bytes resident at end of run
  double capacity_bytes = 0.0;   ///< configured cache capacity

  /// hits / (hits + misses); 0 when the cache saw no traffic.
  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// The time-weighted Eq. 2/3 integrals of one replay: SimEngine folds
/// every span of constant load into one through add_span.
struct LoadIntegrals {
  TimeWeightedMean imbalance_eq2;
  TimeWeightedMean imbalance_cv;
  TimeWeightedMean imbalance_capacity;
  double peak_eq2 = 0.0;

  /// Accounts for `num_servers` utilizations whose sum, sum of squares and
  /// max held over a span of length `dt`.  An idle cluster (max 0) first
  /// flushes `sum` and `sumsq` to exact zeros: every utilization is exactly
  /// zero then, and only the running sums carry rounding residue, which
  /// would otherwise turn the CV into residue/residue noise.  Eq. 2 is
  /// obs::imbalance_eq2; the variance is clamped at 0 because the running
  /// sum of squares can dip below n·mean² by a few ulps.  Only spans of
  /// positive length raise the peak.
  void add_span(double& sum, double& sumsq, double max, double num_servers,
                double dt) {
    if (max <= 0.0) {
      sum = 0.0;
      sumsq = 0.0;
    }
    const double mean = sum / num_servers;
    const double eq2 = obs::imbalance_eq2(max, mean);
    double cv = 0.0;
    if (mean > 0.0) {
      const double variance = std::max(0.0, sumsq / num_servers - mean * mean);
      cv = std::sqrt(variance) / mean;
    }
    imbalance_eq2.add(eq2, dt);
    imbalance_cv.add(cv, dt);
    imbalance_capacity.add(std::max(0.0, max - mean), dt);
    if (dt > 0.0) peak_eq2 = std::max(peak_eq2, eq2);
  }
};

struct SimResult {
  std::size_t total_requests = 0;
  std::size_t rejected = 0;
  /// Rejections attributed to a typed reason (indexed by obs::RejectReason);
  /// the entries always sum exactly to `rejected` — the engine tallies the
  /// reason the policy reported for every rejection, kNone included, so the
  /// breakdown never silently loses a request.
  std::array<std::size_t, obs::kNumRejectReasons> rejected_by_reason{};
  std::size_t redirected = 0;  ///< served by a server other than the RR pick
  std::size_t proxied = 0;     ///< subset of redirected that crossed the backbone
  std::size_t batched = 0;     ///< requests served by joining an existing stream
  std::size_t disrupted = 0;   ///< admitted streams dropped by a server crash

  /// Fraction of requests rejected, in [0, 1]; 0 when there were none.
  [[nodiscard]] double rejection_rate() const;

  /// Time-weighted mean of the Eq. 2 imbalance over the peak period.
  double mean_imbalance_eq2 = 0.0;
  /// Time-weighted mean of the Eq. 3 (coefficient-of-variation) imbalance.
  double mean_imbalance_cv = 0.0;
  /// Largest instantaneous Eq. 2 imbalance observed.
  double peak_imbalance_eq2 = 0.0;
  /// Time-weighted mean of the capacity-normalized excess
  /// (max_j l_j - l_bar) / B.  Mean-normalized Eq. 2 is monotone decreasing
  /// in the arrival rate (the denominator grows with load); normalizing by
  /// the fixed link capacity instead reproduces the rise-peak-fall shape of
  /// the paper's Figure 6 (peak just below saturation, collapse once every
  /// server clips at capacity).
  double mean_imbalance_capacity = 0.0;

  /// Edge-cache tier counters, copied from the policy's CacheTierStats in
  /// the run epilogue; all zero when the policy has no cache tier.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// cache_hits / (cache_hits + cache_misses); 0 when the run had no cache
  /// traffic.
  [[nodiscard]] double cache_hit_ratio() const;

  /// Streams admitted per server (served counts).
  std::vector<std::size_t> served_per_server;
  /// Mean outgoing-bandwidth utilization per server, in [0, 1].
  std::vector<double> utilization_per_server;
  /// Mean utilization across servers.
  [[nodiscard]] double mean_utilization() const;

  /// Field-by-field, floats compared exactly.
  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// What a StoragePolicy decided for one request.  The engine translates
/// this into the SimResult counters; reservations and departure scheduling
/// already happened inside dispatch().
struct PolicyDecision {
  bool admitted = false;      ///< false = the request was rejected
  bool redirected = false;    ///< served by a server other than the RR pick
  bool via_backbone = false;  ///< stream proxied over the internal backbone
  bool batched = false;       ///< joined an existing stream of the video
  /// Primary serving server for the per-request event log (the stripe-group
  /// lead for striped/hybrid organizations); -1 when rejected.
  std::int32_t server = -1;
  /// Required on every rejection: which of the typed reasons applies.
  obs::RejectReason reject_reason = obs::RejectReason::kNone;
};

// SimEngine's hooks compile out in the hook-free build (src/obs/hooks.h),
// so it and the policy types that name it live in that build's namespace.
VODREP_OBS_HOOKS_NS_BEGIN

class StoragePolicy;

/// The shared event-driven core.  One engine instance replays one trace:
/// construct, run(), read the result (run() is single-shot because the
/// server and metric state is consumed by the replay).
class SimEngine {
 public:
  explicit SimEngine(const SimConfig& config);

  /// Replays `trace`, delegating per-request and per-crash decisions to
  /// `policy`.  Deterministic (the trace already fixes all randomness).
  [[nodiscard]] SimResult run(StoragePolicy& policy,
                              const RequestTrace& trace);

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  /// Read-only server state for dispatch decisions; all mutations must go
  /// through admit/release/fail below.
  [[nodiscard]] const std::vector<StreamingServer>& servers() const {
    return servers_;
  }
  [[nodiscard]] const StreamingServer& server(std::size_t s) const {
    return servers_[s];
  }
  /// Current simulation time (the time of the event being processed).
  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] bool can_admit(std::size_t s, double bitrate_bps) const {
    return servers_[s].can_admit(bitrate_bps);
  }
  /// Reserves bandwidth for one stream on `s` (callers check can_admit).
  void admit(std::size_t s, double bitrate_bps);
  /// Releases the bandwidth of one finished stream on `s`.
  void release(std::size_t s, double bitrate_bps);
  /// Crashes `s`: drops its active streams (count returned), empties the
  /// link, and makes every future can_admit() false.
  std::size_t fail(std::size_t s);

  /// Schedules StoragePolicy::on_departure(stream) at `time`.  The returned
  /// id can cancel the departure (a stream killed by a crash).
  EventHeap::Id schedule_departure(double time, std::size_t stream);
  void cancel_departure(EventHeap::Id id);

  /// Attaches a fixed-interval load-timeline collector / per-request event
  /// log for the run.  Both are optional and borrowed (must outlive run());
  /// when absent the hot path pays one pointer test per event.  Attach
  /// before run().  The collector must be built for this engine's server
  /// count (InvalidArgumentError otherwise): every sample copies all N
  /// utilizations into it.
  void attach_timeline(obs::TimeseriesCollector* timeline);
  void attach_event_log(obs::EventLog* event_log) { event_log_ = event_log; }

 private:
  /// The per-request event-log hook of run()'s loop.  Out of line, like
  /// every dormant observability hook, so the hot path carries only a
  /// pointer test for it (the vodrep_sim_hotpath <3% guard prices exactly
  /// this against the hook-free build of this file, src/obs/hooks.h).
  [[gnu::noinline]] void log_request(const Request& request,
                                     const PolicyDecision& decision);
  /// The metrics epilogue of run(): finalizes the time-weighted means and
  /// per-server tallies at `horizon` and returns the result.
  SimResult finalize(double horizon);
  /// Applies departures and injected failures up to `now` in time order
  /// (failures win ties) and integrates the load signals.
  void advance_events(StoragePolicy& policy, double now);
  /// Accounts for the current utilization state holding over [now_, t).
  void integrate_to(double t);
  /// integrate_to's body when a timeline is attached: the same span, plus
  /// the samples due in it.  Out of line, so the unobserved path keeps no
  /// hook state live across its calls.
  [[gnu::noinline]] void integrate_observed_to(double t, double dt);
  /// Emits every timeline sample due in (now_, t]; the signals are
  /// piecewise constant over that span, so boundary samples are exact.
  void sample_timeline_to(double t);
  /// Bracket every busy-bandwidth mutation of server `s` (at time now_).
  void pre_load_change(std::size_t s);
  void post_load_change(std::size_t s);
  [[nodiscard]] double current_max_utilization() const;

  SimConfig config_;
  std::vector<StreamingServer> servers_;
  std::vector<double> capacities_bps_;
  EventHeap departures_;
  std::size_t next_failure_ = 0;
  bool ran_ = false;
  std::size_t requests_dispatched_ = 0;  ///< arrivals processed so far
  obs::TimeseriesCollector* timeline_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  /// Borrowed from the policy in run() (nullptr for cache-less policies);
  /// read for timeline samples and snapshotted in the epilogue.
  const CacheTierStats* cache_stats_ = nullptr;

  // --- incrementally maintained metric state ---
  double now_ = 0.0;                      ///< last integration time
  std::vector<double> utilization_;       ///< busy / capacity per server
  double utilization_sum_ = 0.0;
  double utilization_sumsq_ = 0.0;
  mutable std::size_t max_server_ = 0;    ///< lazy argmax utilization
  mutable bool max_dirty_ = false;
  std::vector<double> busy_integral_;     ///< integral of busy_bps over time
  std::vector<double> busy_since_;        ///< last busy change per server
  LoadIntegrals load_;
  SimResult result_;
};

/// How one storage organization maps requests to bandwidth reservations.
/// Implementations keep per-stream records, reserve and free bandwidth only
/// through the engine, and schedule/cancel departures for the streams they
/// open.  A new organization is one subclass with the four replay hooks
/// below, after which simulate() replays it with no other change
/// (DESIGN.md, "Simulation engine").
class StoragePolicy {
 public:
  /// The config is copied, so a temporary (e.g. `scenario.sim_config()`)
  /// is safe to pass; simulate() builds the engine from this copy.
  explicit StoragePolicy(const SimConfig& config) : config_(config) {}
  StoragePolicy(const StoragePolicy&) = delete;
  StoragePolicy& operator=(const StoragePolicy&) = delete;
  virtual ~StoragePolicy() = default;

  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// Called once by SimEngine::run before the replay; the policy keeps the
  /// engine pointer for the duration of the run.
  virtual void bind(SimEngine& engine) = 0;

  /// Handles one arriving request: decide the serving server(s), reserve
  /// bandwidth via engine admit(), and schedule the departure(s).  Returns
  /// what happened so the engine can update the counters.
  virtual PolicyDecision dispatch(const Request& request) = 0;

  /// A departure scheduled via schedule_departure(time, stream) fired:
  /// release the stream's reservations.
  virtual void on_departure(std::size_t stream) = 0;

  /// Server `server` crashed.  The policy fails it on the engine, tears
  /// down every stream the crash kills, and returns how many admitted
  /// streams were disrupted.
  virtual std::size_t on_crash(std::size_t server) = 0;

  /// Live cache-tier counters, or nullptr when the organization has no edge
  /// cache.  The engine reads the pointer once in run() (right after bind)
  /// and samples it as the run progresses, so the instance must stay valid
  /// for the whole replay.
  [[nodiscard]] virtual const CacheTierStats* cache_stats() const {
    return nullptr;
  }

 protected:
  const SimConfig config_;
};

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
