// End-to-end pipeline benchmark: the paper's whole flow — Adams/SLF
// replication and placement (§4.1–4.2), simulated annealing over scalable
// rates (§4.3), the §5 simulation and its run report — timed pass by pass
// on five workloads, with a span around every call this program makes into a
// src/ module.  benchmark/README.md gives the workloads, the metrics and
// which layer should move which metric.
//
// One process runs one workload, as a closed loop with one client:
//   1. the thread pool, then set-up (popularity vectors, problem specs) of
//      the world the passes use;
//   2. pass 0, cold and excluded from the timed statistics;
//   3. passes 1, 2, ... back to back until --seconds (by default the
//      manifest's run_seconds) have elapsed, at least kMinTimedPasses.  With
//      --trace=1 every pass index runs twice, once untraced and once with
//      spans recorded, in alternating order.  Between passes, further
//      set-ups are timed and dropped, kSetupSamples samples spread evenly
//      over the run; setup_s is the median sample.
// Pass i draws all its randomness from (--seed, i), so the k-th pass does
// the same work on every commit.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace=0, the
// per-layer metrics with --trace=1.  --manifest checks those names and
// units against BENCHMARK.json before anything is printed.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/adams_replication.h"
#include "src/core/objective.h"
#include "src/core/sa_solver.h"
#include "src/core/slf_placement.h"
#include "src/obs/event_log.h"
#include "src/obs/json_lite.h"
#include "src/obs/report.h"
#include "src/obs/timeseries.h"
#include "src/online/controller.h"
#include "src/sim/engine.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/run_report.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Run protocol and the paper's §5 cluster, shared by every workload.

constexpr std::size_t kSetupSamples = 15;
/// One set-up sample averages back-to-back set-ups for about this long, so
/// the microsecond set-ups of the small worlds are not timer noise.
constexpr double kSetupSampleSec = 0.01;
constexpr std::size_t kMinTimedPasses = 2;
/// Passes 0..kQualityPasses-1 always run, so the quality metrics averaged
/// over them are a function of the seed alone, whatever the pass count.
constexpr std::size_t kQualityPasses = 3;
static_assert(kQualityPasses <= 1 + kMinTimedPasses);
constexpr std::size_t kMaxPoolThreads = 4;

constexpr double kBandwidthBps = units::gbps(1.8);
constexpr double kBitrateBps = units::mbps(4);
constexpr double kPeakSec = units::minutes(90);
constexpr double kTheta = 0.75;
constexpr std::size_t kEventLogCapacity = 10'000;

const std::vector<std::string> kWorkloads = {
    "paper-week", "sa-scalable", "catalog-1m", "sim-month", "edge-cache"};

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// CPU time of every thread of this process, pool workers included.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : quantile(values, 0.5);
}

SimConfig cluster_config(std::size_t servers) {
  SimConfig config;
  config.num_servers = servers;
  config.bandwidth_bps_per_server = kBandwidthBps;
  config.stream_bitrate_bps = kBitrateBps;
  config.video_duration_sec = kPeakSec;
  return config;
}

/// Arrival rate (requests/s) that offers `load` times the cluster's
/// steady-state stream capacity: lambda * T = load * N * B / b.
double arrival_rate_at(double load, std::size_t servers) {
  return load * static_cast<double>(servers) * (kBandwidthBps / kBitrateBps) /
         kPeakSec;
}

// ---------------------------------------------------------------------------
// Spans: recorded by this program around its calls into each layer, kept in
// memory and written as chrome-trace JSON at exit.

class SpanLog {
 public:
  struct Record {
    const char* name = "";
    double start_s = 0.0;  ///< since the log was created
    double end_s = 0.0;
    std::ptrdiff_t parent = -1;  ///< index into records(); -1 for a pass root
    std::size_t pass = 0;
  };

  /// A disabled log records nothing; spans on it still time their interval.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void set_pass(std::size_t pass) { pass_ = pass; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  std::ptrdiff_t open(const char* name, Clock::time_point now) {
    if (!enabled_) return -1;
    Record record;
    record.name = name;
    record.start_s = seconds_between(origin_, now);
    record.parent = open_.empty() ? -1 : open_.back();
    record.pass = pass_;
    records_.push_back(record);
    open_.push_back(static_cast<std::ptrdiff_t>(records_.size()) - 1);
    return open_.back();
  }

  void close(std::ptrdiff_t index, Clock::time_point now) {
    if (index < 0) return;
    records_[static_cast<std::size_t>(index)].end_s =
        seconds_between(origin_, now);
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  void write_chrome_trace(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":";
      obs::write_json_string(os, r.name);
      os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.start_s * 1e6
         << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
         << ",\"args\":{\"pass\":" << r.pass << ",\"parent\":" << r.parent
         << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::size_t pass_ = 0;
  std::vector<Record> records_;
  std::vector<std::ptrdiff_t> open_;
};

/// Times one call into a layer and, on an enabled log, records it as a span
/// under the innermost open one.
class Span {
 public:
  Span(SpanLog& log, const char* name)
      : log_(log), start_(Clock::now()), index_(log.open(name, start_)) {}
  ~Span() { (void)stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (once) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      log_.close(index_, end_);
      stopped_ = true;
    }
    return seconds_between(start_, end_);
  }

 private:
  SpanLog& log_;
  Clock::time_point start_;
  Clock::time_point end_;
  std::ptrdiff_t index_;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Pass results.

struct PassResult {
  double wall_s = 0.0;  ///< set by the caller, destructors included
  double plan_s = 0.0;  ///< popularity -> audited layout
  double requests = 0.0;  ///< requests in each replay of the pass
  // Quality, exact in the seed.
  double objective = 0.0;      ///< Eq. 1 (sa-scalable)
  double imbalance_eq2 = 0.0;  ///< expected-load Eq. 2 of the plan
  /// Per-layer values of this pass, summed over repeated calls.
  std::map<std::string, double> values;
  std::vector<std::string> failures;

  void add(const std::string& name, double value) { values[name] += value; }
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

void check_sim_result(const SimResult& result, std::size_t trace_size,
                      const char* what, PassResult& out) {
  const std::size_t by_reason =
      std::accumulate(result.rejected_by_reason.begin(),
                      result.rejected_by_reason.end(), std::size_t{0});
  if (by_reason != result.rejected) {
    out.fail(std::string(what) + ": rejected_by_reason sums to " +
             std::to_string(by_reason) + ", rejected is " +
             std::to_string(result.rejected));
  }
  if (result.total_requests != trace_size) {
    out.fail(std::string(what) + ": total_requests " +
             std::to_string(result.total_requests) + " != trace size " +
             std::to_string(trace_size));
  }
}

/// Counts the rejections of the replay the workload's quality metrics
/// describe.
void count_rejections(const SimResult& result, PassResult& out) {
  out.add("sim.rejected", static_cast<double>(result.rejected));
  for (std::size_t r = 0; r < obs::kNumRejectReasons; ++r) {
    out.add("sim.rejected." +
                std::string(obs::reject_reason_name(
                    static_cast<obs::RejectReason>(r))),
            static_cast<double>(result.rejected_by_reason[r]));
  }
}

bool close_enough(double a, double b) {
  return std::abs(a - b) <= 1e-7 * std::max(1.0, std::abs(a));
}

/// The shard-invariance guarantee: counters and per-server vectors equal,
/// float integrals within 1e-7.
void check_same_result(const SimResult& s1, const SimResult& sk,
                       PassResult& out) {
  const bool counters_equal =
      s1.total_requests == sk.total_requests && s1.rejected == sk.rejected &&
      s1.rejected_by_reason == sk.rejected_by_reason &&
      s1.redirected == sk.redirected && s1.proxied == sk.proxied &&
      s1.batched == sk.batched && s1.disrupted == sk.disrupted &&
      s1.served_per_server == sk.served_per_server;
  bool floats_close =
      close_enough(s1.mean_imbalance_eq2, sk.mean_imbalance_eq2) &&
      close_enough(s1.mean_imbalance_cv, sk.mean_imbalance_cv) &&
      close_enough(s1.peak_imbalance_eq2, sk.peak_imbalance_eq2) &&
      close_enough(s1.mean_imbalance_capacity, sk.mean_imbalance_capacity) &&
      s1.utilization_per_server.size() == sk.utilization_per_server.size();
  for (std::size_t s = 0; floats_close && s < s1.utilization_per_server.size();
       ++s) {
    floats_close = close_enough(s1.utilization_per_server[s],
                                sk.utilization_per_server[s]);
  }
  if (!counters_equal) out.fail("sharded replay: counters differ from S=1");
  if (!floats_close) out.fail("sharded replay: integrals differ from S=1");
}

/// Builds the run report, serializes it to memory and validates the text
/// as a reader would.
void report_pass(const SimConfig& config, const SimResult& result,
                 const obs::TimeseriesCollector& timeline,
                 const obs::EventLog& events, SpanLog& log, PassResult& out) {
  obs::JsonValue report;
  {
    Span span(log, "obs.report_build");
    report = build_run_report(config, result, &timeline, &events);
    out.add("obs.report_build_s", span.stop());
  }
  std::string text;
  {
    Span span(log, "obs.report_write");
    std::ostringstream os;
    report.write(os);
    text = std::move(os).str();
    report = obs::JsonValue();  // the tree is done once serialized
    out.add("obs.report_write_s", span.stop());
  }
  std::vector<std::string> problems;
  {
    Span span(log, "obs.report_validate");
    problems = obs::validate_run_report(obs::parse_json(text));
    out.add("obs.report_validate_s", span.stop());
  }
  out.add("obs.report_bytes", static_cast<double>(text.size()));
  if (!problems.empty()) out.fail("run report invalid: " + problems.front());
}

/// The report's load timeline and per-request event log.
struct Collectors {
  Collectors(double horizon, std::size_t servers)
      : timeline(obs::TimeseriesConfig{horizon / 64.0}, servers),
        events(kEventLogCapacity) {}
  obs::TimeseriesCollector timeline;
  obs::EventLog events;
};

std::unique_ptr<Collectors> make_collectors(double horizon,
                                            std::size_t servers,
                                            SpanLog& log) {
  Span span(log, "obs.collectors");
  return std::make_unique<Collectors>(horizon, servers);
}

// ---------------------------------------------------------------------------
// Workloads.  Constructing one is the set-up; run_pass is one pass, timed by
// the caller from its first statement to the last destructor.

struct CheckCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual PassResult run_pass(std::uint64_t seed,
                                            SpanLog& log) = 0;
  /// Untimed checks after the measured passes on the first passes, where
  /// passes[i] ran with seeds[i].  Reports each failure on stderr.
  [[nodiscard]] virtual CheckCount recheck(
      const std::vector<std::uint64_t>& /*seeds*/,
      const std::vector<PassResult>& /*passes*/) {
    return {};
  }
  /// Worker threads of the parallel layers; 1 when the workload has none.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

/// A fixed-rate world planned by Adams + SLF (§4.1–4.2).
struct FixedRateWorld {
  FixedRateWorld(std::size_t videos, std::size_t servers_in, double degree)
      : popularity(zipf_popularity(videos, kTheta)),
        servers(servers_in),
        budget(static_cast<std::size_t>(degree * static_cast<double>(videos))),
        capacity((budget + servers_in - 1) / servers_in) {}

  std::vector<double> popularity;
  std::size_t servers;
  std::size_t budget;
  std::size_t capacity;  ///< replica slots per server
};

struct Plan {
  ReplicationPlan replication;
  Layout layout;
};

/// Eqs. 4, 6, 7 and plan realization, then the expected-load Eq. 2
/// imbalance the planner promises.
void audit_layout(const Layout& layout, const ReplicationPlan& plan,
                  const FixedRateWorld& world, SpanLog& log, PassResult& out) {
  {
    Span span(log, "audit.audit");
    LayoutAuditor::Limits limits;
    limits.num_servers = world.servers;
    limits.capacity_per_server = world.capacity;
    const AuditReport report = LayoutAuditor(limits).audit(layout, &plan);
    out.add("audit.audit_s", span.stop());
    out.add("audit.checks", static_cast<double>(report.checks_performed));
    if (!report.ok()) out.fail("layout audit: " + report.summary());
  }
  Span span(log, "core.imbalance");
  out.imbalance_eq2 = imbalance_max_relative(
      layout.expected_loads(world.popularity, world.servers));
}

Plan plan_fixed_rate(const FixedRateWorld& world, SpanLog& log,
                     PassResult& out) {
  const auto start = Clock::now();
  Plan plan;
  {
    Span span(log, "core.replicate");
    plan.replication = AdamsReplication().replicate(
        world.popularity, world.servers, world.budget);
    out.add("core.replicate_s", span.stop());
  }
  {
    Span span(log, "core.place");
    plan.layout = SmallestLoadFirstPlacement().place(
        plan.replication, world.popularity, world.servers, world.capacity);
    out.add("core.place_s", span.stop());
  }
  audit_layout(plan.layout, plan.replication, world, log, out);
  out.plan_s += seconds_between(start, Clock::now());
  out.add("core.replicas",
          static_cast<double>(plan.replication.total_replicas()));
  return plan;
}

RequestTrace generate(const TraceSpec& spec, Rng& rng, SpanLog& log,
                      PassResult& out) {
  Span span(log, "workload.generate");
  RequestTrace trace = generate_trace(rng, spec);
  out.add("workload.generate_s", span.stop());
  out.add("workload.requests", static_cast<double>(trace.size()));
  return trace;
}

/// Replays `trace` at S=1 (or on `pool`) under span `name`; adds the wall
/// time to the per-layer value `name`_s and returns the result.
SimResult replay(const char* name, const Plan& plan, const SimConfig& config,
                 const RequestTrace& trace, Collectors* collectors,
                 SpanLog& log, PassResult& out, ThreadPool* pool = nullptr) {
  Span span(log, name);
  ShardedSimOptions options;
  if (pool != nullptr) {
    options.num_shards = pool->size();
    options.pool = pool;
  }
  SimResult result = simulate_sharded(
      plan.layout, config, trace, options,
      collectors != nullptr ? &collectors->timeline : nullptr,
      collectors != nullptr ? &collectors->events : nullptr);
  out.add(std::string(name) + "_s", span.stop());
  check_sim_result(result, trace.size(), name, out);
  return result;
}

/// The paper's own setting (§5): M=300, N=8, degree 1.2 at the saturation
/// rate of 40 req/min, over a week of daily peaks with the adaptive
/// controller replanning after each.
class PaperWeek final : public Workload {
 public:
  explicit PaperWeek(std::size_t videos)
      : world_(videos, 8, 1.2), config_(cluster_config(world_.servers)) {
    controller_.replication = "adams";
    controller_.placement = "slf";
    controller_.num_servers = world_.servers;
    controller_.budget = world_.budget;
    controller_.capacity_per_server = world_.capacity;
    spec_.arrival_rate = units::per_minute(40.0);
    spec_.horizon = kPeakSec;
    spec_.popularity = world_.popularity;
  }

  PassResult run_pass(std::uint64_t seed, SpanLog& log) override {
    PassResult out;
    const auto plan_start = Clock::now();
    std::optional<AdaptiveController> controller;
    {
      Span span(log, "online.provision");
      controller.emplace(controller_, world_.popularity);
      out.add("online.provision_s", span.stop());
    }
    audit_layout(controller->layout(), controller->plan(), world_, log, out);
    out.plan_s = seconds_between(plan_start, Clock::now());

    const auto collectors = make_collectors(kPeakSec, world_.servers, log);
    controller->set_timeline(&collectors->timeline);
    Rng rng(seed);
    std::vector<SimResult> days;
    for (std::size_t day = 0; day < kDays; ++day) {
      const RequestTrace trace = generate(spec_, rng, log, out);
      {
        Span span(log, "sim.run");
        SimEngine engine(config_);
        ReplicatedPolicy policy(controller->layout(), config_);
        const double offset = static_cast<double>(day) * kPeakSec;
        collectors->timeline.set_time_offset(offset);
        collectors->events.set_time_offset(offset);
        engine.attach_timeline(&collectors->timeline);
        engine.attach_event_log(&collectors->events);
        days.push_back(engine.run(policy, trace));
        out.add("sim.run_s", span.stop());
      }
      out.requests += static_cast<double>(trace.size());
      check_sim_result(days.back(), trace.size(), "sim.run", out);
      Span span(log, "online.adapt");
      controller->observe_epoch(trace.video_counts(world_.popularity.size()));
      const AdaptationStep step =
          controller->adapt(static_cast<double>(day + 1) * kPeakSec);
      out.add("online.adapt_s", span.stop());
      out.add("online.replans", step.replanned ? 1.0 : 0.0);
      out.add("online.copies",
              static_cast<double>(step.migration.copies.size()));
    }
    SimResult week;
    {
      Span span(log, "sim.aggregate");
      week = aggregate_results(days);
    }
    count_rejections(week, out);
    report_pass(config_, week, collectors->timeline, collectors->events, log,
                out);
    return out;
  }

 private:
  static constexpr std::size_t kDays = 7;
  FixedRateWorld world_;
  SimConfig config_;
  ControllerConfig controller_;
  TraceSpec spec_;
};

/// §4.3: parallel-tempering SA over a bitrate ladder, then the audit.  No
/// simulation and no report, so SA is nearly the whole pass.
class SaScalable final : public Workload {
 public:
  SaScalable(std::size_t videos, ThreadPool& pool) : pool_(pool) {
    problem_.videos.duration_sec = kPeakSec;
    problem_.videos.popularity = zipf_popularity(videos, kTheta);
    problem_.cluster.num_servers = 32;
    problem_.cluster.bandwidth_bps_per_server = kBandwidthBps;
    problem_.cluster.storage_bytes_per_server = units::gigabytes(200);
    problem_.ladder.rates_bps = {units::mbps(1), units::mbps(2),
                                 units::mbps(3), units::mbps(4),
                                 units::mbps(6), units::mbps(8)};
    problem_.expected_peak_requests = 14'400;
    problem_.weights.alpha = 1.0;
    problem_.weights.beta = 1.0;
    problem_.validate();
    // A fixed schedule (stall stop off) makes the move count a function of
    // the options alone: 135 temperature steps x 400 moves x 4 chains.
    options_.chains = 4;
    options_.anneal.initial_temperature = 1.0;
    options_.anneal.final_temperature = 1e-3;
    options_.anneal.moves_per_temperature = 400;
    options_.anneal.stall_steps = 0;
    options_.anneal.swap_period = 8;
    options_.anneal.temperature_spread = 1.15;
  }

  PassResult run_pass(std::uint64_t seed, SpanLog& log) override {
    PassResult out;
    const auto plan_start = Clock::now();
    SaSolverResult result;
    {
      Span span(log, "anneal.solve");
      const double cpu_start = process_cpu_seconds();
      result = solve_scalable(problem_, seed, options_, &pool_);
      out.add("anneal.cpu_s", process_cpu_seconds() - cpu_start);
      out.add("anneal.solve_s", span.stop());
    }
    {
      Span span(log, "audit.audit");
      const AuditReport audit =
          LayoutAuditor::audit_solution(problem_, result.solution);
      out.add("audit.audit_s", span.stop());
      out.add("audit.checks", static_cast<double>(audit.checks_performed));
      if (!audit.ok_ignoring(ViolationKind::kBandwidthOverflow)) {
        out.fail("SA solution audit: " + audit.summary());
      }
    }
    out.plan_s = seconds_between(plan_start, Clock::now());
    if (!std::isfinite(result.objective)) out.fail("SA objective not finite");
    out.objective = result.objective;
    const auto& anneal = result.anneal;
    out.add("anneal.moves_proposed",
            static_cast<double>(anneal.moves_proposed));
    out.add("anneal.moves_accepted",
            static_cast<double>(anneal.moves_accepted));
    out.add("anneal.moves_noop", static_cast<double>(anneal.moves_noop));
    out.add("anneal.swap_attempts", static_cast<double>(anneal.swap_attempts));
    out.add("anneal.swap_accepts", static_cast<double>(anneal.swap_accepts));
    return out;
  }

  /// The objective must not depend on the thread count: re-solve the first
  /// passes inline and compare bit for bit.
  CheckCount recheck(const std::vector<std::uint64_t>& seeds,
                     const std::vector<PassResult>& passes) override {
    CheckCount count;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const double inline_objective =
          solve_scalable(problem_, seeds[i], options_, nullptr).objective;
      ++count.attempted;
      if (inline_objective != passes[i].objective) {
        ++count.failed;
        std::cerr.precision(17);
        std::cerr << "sa-scalable pass " << i << ": objective "
                  << passes[i].objective << " on " << pool_.size()
                  << " threads, " << inline_objective << " inline\n";
      }
    }
    return count;
  }

  std::size_t threads() const override { return pool_.size(); }

 private:
  ScalableProblem problem_;
  SaSolverOptions options_;
  ThreadPool& pool_;
};

/// ROADMAP's large point: a million-video catalogue on 256 servers, one
/// peak at 95% of stream capacity.  Placement and audit dominate.
class Catalog1m final : public Workload {
 public:
  explicit Catalog1m(std::size_t videos)
      : world_(videos, 256, 1.2), config_(cluster_config(world_.servers)) {
    spec_.arrival_rate = arrival_rate_at(0.95, world_.servers);
    spec_.horizon = kPeakSec;
    spec_.popularity = world_.popularity;
  }

  PassResult run_pass(std::uint64_t seed, SpanLog& log) override {
    PassResult out;
    const Plan plan = plan_fixed_rate(world_, log, out);
    Rng rng(seed);
    const RequestTrace trace = generate(spec_, rng, log, out);
    const auto collectors = make_collectors(kPeakSec, world_.servers, log);
    const SimResult result =
        replay("sim.run", plan, config_, trace, collectors.get(), log, out);
    out.requests = static_cast<double>(trace.size());
    count_rejections(result, out);
    report_pass(config_, result, collectors->timeline, collectors->events, log,
                out);
    return out;
  }

 private:
  FixedRateWorld world_;
  SimConfig config_;
  TraceSpec spec_;
};

/// Four weeks of daily peaks as one trace, replayed at S=1 and at
/// S=min(4, nproc) shards: the engine event loop dominates, and the S=1
/// replay of the same trace is the control for the sharded one.
class SimMonth final : public Workload {
 public:
  SimMonth(std::size_t videos, ThreadPool& pool)
      : world_(videos, 64, 1.2),
        config_(cluster_config(world_.servers)),
        pool_(pool) {
    spec_.arrival_rate = arrival_rate_at(0.95, world_.servers);
    spec_.horizon = kHorizonSec;
    spec_.popularity = world_.popularity;
  }

  PassResult run_pass(std::uint64_t seed, SpanLog& log) override {
    PassResult out;
    Rng rng(seed);
    const RequestTrace trace = generate(spec_, rng, log, out);
    const Plan plan = plan_fixed_rate(world_, log, out);
    const auto collectors = make_collectors(kHorizonSec, world_.servers, log);
    const SimResult result =
        replay("sim.run", plan, config_, trace, collectors.get(), log, out);
    const auto sharded_collectors =
        make_collectors(kHorizonSec, world_.servers, log);
    const double cpu_start = process_cpu_seconds();
    const SimResult sharded =
        replay("sim.sharded_run", plan, config_, trace,
               sharded_collectors.get(), log, out, &pool_);
    out.add("sim.sharded_cpu_s", process_cpu_seconds() - cpu_start);
    out.requests = static_cast<double>(trace.size());
    check_same_result(result, sharded, out);
    count_rejections(result, out);
    report_pass(config_, result, collectors->timeline, collectors->events, log,
                out);
    return out;
  }

  std::size_t threads() const override { return pool_.size(); }

 private:
  static constexpr double kHorizonSec = 28 * kPeakSec;
  FixedRateWorld world_;
  SimConfig config_;
  TraceSpec spec_;
  ThreadPool& pool_;
};

/// One replica per video behind a 500 GB LRU edge tier holding the first
/// quarter of each video; the same trace replays with and without the
/// tier.  The cache layer dominates; sim-month bypasses it.
class EdgeCache final : public Workload {
 public:
  explicit EdgeCache(std::size_t videos)
      : world_(videos, 64, 1.0), config_(cluster_config(world_.servers)) {
    spec_.arrival_rate = arrival_rate_at(1.0, world_.servers);
    spec_.horizon = kHorizonSec;
    spec_.popularity = world_.popularity;
    cache_.eviction = CacheEvictionPolicy::kLru;
    cache_.capacity_bytes = units::gigabytes(500);
    cache_.uniform_prefix_fraction = 0.25;
  }

  PassResult run_pass(std::uint64_t seed, SpanLog& log) override {
    PassResult out;
    const Plan plan = plan_fixed_rate(world_, log, out);
    Rng rng(seed);
    const RequestTrace trace = generate(spec_, rng, log, out);
    SimResult cached;
    {
      Span span(log, "sim.cache_run");
      cached = simulate_sharded_prefix_cache(plan.layout, config_, cache_,
                                             trace, ShardedSimOptions{});
      out.add("sim.cache_run_s", span.stop());
    }
    check_sim_result(cached, trace.size(), "sim.cache_run", out);
    if (cached.cache_hits + cached.cache_misses != trace.size()) {
      out.fail("sim.cache_run: hits + misses != requests");
    }
    (void)replay("sim.nocache_run", plan, config_, trace, nullptr, log, out);
    out.requests = static_cast<double>(trace.size());
    count_rejections(cached, out);
    out.add("sim.cache_hits", static_cast<double>(cached.cache_hits));
    out.add("sim.cache_misses", static_cast<double>(cached.cache_misses));
    out.add("sim.cache_evictions", static_cast<double>(cached.cache_evictions));
    return out;
  }

 private:
  static constexpr double kHorizonSec = 3 * kPeakSec;
  FixedRateWorld world_;
  SimConfig config_;
  TraceSpec spec_;
  PrefixCacheOptions cache_;
};

/// The workloads whose passes run on a thread pool.  The others get none:
/// a second thread in the process turns off the runtime's single-thread
/// fast paths (malloc locking, atomic reference counts), which made
/// edge-cache passes 23-48% slower.
bool uses_pool(const std::string& name) {
  return name == "sa-scalable" || name == "sim-month";
}

/// Set-up: builds the workload's world, on `pool` when uses_pool(name).
/// --quick divides every catalogue by ten.
std::unique_ptr<Workload> make_workload(const std::string& name, bool quick,
                                        ThreadPool* pool) {
  const std::size_t scale = quick ? 10 : 1;
  require(pool != nullptr || !uses_pool(name), "workload needs a pool");
  if (name == "paper-week") return std::make_unique<PaperWeek>(300 / scale);
  if (name == "sa-scalable") {
    return std::make_unique<SaScalable>(2000 / scale, *pool);
  }
  if (name == "catalog-1m") {
    return std::make_unique<Catalog1m>(1'000'000 / scale);
  }
  if (name == "sim-month") {
    return std::make_unique<SimMonth>(10'000 / scale, *pool);
  }
  if (name == "edge-cache") return std::make_unique<EdgeCache>(10'000 / scale);
  throw InvalidArgumentError("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace=0 and gated by BENCHMARK.json's bounds: every
/// workload has each of them, and none is ever 0.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"pass_p50_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// End-to-end quantities reported with the per-layer metrics, ungated: some
/// workload lacks them or they can read 0, or (plan_p50_s) their run-to-run
/// spread exceeded the bound.  Printed in both modes.
const std::vector<MetricDef> kEndToEndUngated = {
    {"plan_p50_s", "s"},
    {"pass_tail_s", "s"},
    {"pass_tail_pct", "%"},
    {"sim_mreq_per_s", "Mreq/s"},
    {"sim_sharded_mreq_per_s", "Mreq/s"},
    {"sa_objective", "objective"},
    {"imbalance_eq2", "fraction"},
    {"rejection_rate", "fraction"},
    {"cache_hit_ratio", "fraction"},
    {"error_rate", "fraction"},
};

/// Per-layer values, from the untraced passes.  A layer a workload does not
/// call reads 0, and so do the bench.* span figures without --trace=1.
const std::vector<MetricDef> kLayers = {
    {"workload.generate_s", "s"},
    {"workload.requests", "count"},
    {"core.replicate_s", "s"},
    {"core.place_s", "s"},
    {"core.replicas", "count"},
    {"audit.audit_s", "s"},
    {"audit.checks", "count"},
    {"anneal.solve_s", "s"},
    {"anneal.cpu_s", "s"},
    {"anneal.parallelism", "x"},
    {"anneal.moves_proposed", "count"},
    {"anneal.mmoves_per_s", "Mmoves/s"},
    {"anneal.acceptance_ratio", "fraction"},
    {"anneal.noop_ratio", "fraction"},
    {"anneal.swap_accept_ratio", "fraction"},
    {"sim.run_s", "s"},
    {"sim.ns_per_request", "ns"},
    {"sim.rejected", "count"},
    {"sim.rejected.none", "count"},
    {"sim.rejected.no_bandwidth", "count"},
    {"sim.rejected.no_replica_alive", "count"},
    {"sim.rejected.stripe_unavailable", "count"},
    {"sim.rejected.cache_miss_origin_busy", "count"},
    {"sim.sharded_run_s", "s"},
    {"sim.sharded_cpu_s", "s"},
    {"sim.sharded_parallelism", "x"},
    {"sim.cache_run_s", "s"},
    {"sim.nocache_run_s", "s"},
    {"sim.cache_overhead_x", "x"},
    {"sim.cache_hits", "count"},
    {"sim.cache_misses", "count"},
    {"sim.cache_evictions", "count"},
    {"sim.cache_evictions_per_request", "ratio"},
    {"online.provision_s", "s"},
    {"online.adapt_s", "s"},
    {"online.replans", "count"},
    {"online.copies", "count"},
    {"obs.report_build_s", "s"},
    {"obs.report_write_s", "s"},
    {"obs.report_validate_s", "s"},
    {"obs.report_bytes", "bytes"},
    {"bench.cold_pass_s", "s"},
    {"bench.unattributed_s", "s"},
    {"bench.coverage_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.passes", "count"},
    {"bench.threads", "count"},
    {"bench.hardware_threads", "count"},
};

std::vector<MetricDef> concat(std::vector<MetricDef> a,
                              const std::vector<MetricDef>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Reported with --trace=1.
const std::vector<MetricDef> kPerLayer = concat(kEndToEndUngated, kLayers);

/// Median over passes of one per-pass value.
double median_of(const std::vector<PassResult>& passes,
                 const std::function<double(const PassResult&)>& value) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const PassResult& pass : passes) values.push_back(value(pass));
  return median(values);
}

/// The highest of a few standard percentiles with at least ten passes
/// beyond it; the maximum when there are fewer than twenty passes.
std::pair<double, double> tail_of(const std::vector<double>& wall) {
  const double n = static_cast<double>(wall.size());
  for (const double p : {0.99, 0.95, 0.90, 0.75, 0.5}) {
    if (n * (1.0 - p) >= 10.0) return {quantile(wall, p), 100.0 * p};
  }
  return {wall.empty() ? 0.0 : *std::max_element(wall.begin(), wall.end()),
          100.0};
}

/// Per-pass root time, time not covered by a layer span, and self time per
/// span name, from the traced passes.
struct SpanSummary {
  std::vector<double> unattributed_s;  ///< one entry per traced pass
  double pass_total_s = 0.0;
  struct Layer {
    std::size_t calls = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Layer> layers;
};

SpanSummary summarize(const std::vector<SpanLog::Record>& records) {
  std::vector<double> child_s(records.size(), 0.0);
  for (const SpanLog::Record& r : records) {
    if (r.parent >= 0) {
      child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  SpanSummary summary;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanLog::Record& r = records[i];
    const double self = (r.end_s - r.start_s) - child_s[i];
    if (r.parent < 0) {
      summary.unattributed_s.push_back(self);
      summary.pass_total_s += r.end_s - r.start_s;
    } else {
      SpanSummary::Layer& layer = summary.layers[r.name];
      ++layer.calls;
      layer.self_s += self;
    }
  }
  return summary;
}

struct RunData {
  std::vector<double> setup_s;
  PassResult cold;
  std::vector<PassResult> untraced;  ///< timed passes
  std::vector<PassResult> traced;
  std::vector<PassResult> quality;   ///< passes 0..kQualityPasses-1
  SpanSummary spans;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t threads = 1;
};

std::map<std::string, double> compute_metrics(const RunData& run) {
  using PassValue = std::function<double(const PassResult&)>;
  const auto untraced = [&](const PassValue& f) {
    return median_of(run.untraced, f);
  };

  std::map<std::string, double> m;
  m["setup_s"] = median(run.setup_s);
  m["pass_p50_s"] = untraced([](const PassResult& p) { return p.wall_s; });
  m["plan_p50_s"] = untraced([](const PassResult& p) { return p.plan_s; });
  m["peak_rss_mb"] = peak_rss_mb();

  std::vector<double> wall;
  for (const PassResult& p : run.untraced) wall.push_back(p.wall_s);
  std::tie(m["pass_tail_s"], m["pass_tail_pct"]) = tail_of(wall);
  // The S=1 replays; on edge-cache, the replay behind the cache.
  m["sim_mreq_per_s"] = untraced([](const PassResult& p) {
    return ratio(p.requests,
                 p.value("sim.run_s") + p.value("sim.cache_run_s")) / 1e6;
  });
  m["sim_sharded_mreq_per_s"] = untraced([](const PassResult& p) {
    return ratio(p.requests, p.value("sim.sharded_run_s")) / 1e6;
  });
  double objective = 0.0, requests = 0.0, rejected = 0.0;
  double hits = 0.0, misses = 0.0;
  for (const PassResult& p : run.quality) {
    objective += p.objective;
    requests += p.requests;
    rejected += p.value("sim.rejected");
    hits += p.value("sim.cache_hits");
    misses += p.value("sim.cache_misses");
  }
  m["sa_objective"] = ratio(objective, static_cast<double>(run.quality.size()));
  m["imbalance_eq2"] =
      run.quality.empty() ? 0.0 : run.quality.front().imbalance_eq2;
  m["rejection_rate"] = ratio(rejected, requests);
  m["cache_hit_ratio"] = ratio(hits, hits + misses);
  m["error_rate"] = ratio(static_cast<double>(run.failed),
                          static_cast<double>(run.attempted));

  // Per-layer values: medians over the untraced passes.  A layer the
  // workload does not call reads 0.
  for (const MetricDef& def : kLayers) {
    const std::string name = def.name;
    m[name] = untraced([&](const PassResult& p) { return p.value(name); });
  }
  m["anneal.parallelism"] = untraced([](const PassResult& p) {
    return ratio(p.value("anneal.cpu_s"), p.value("anneal.solve_s"));
  });
  const auto moves = [](const PassResult& p) {
    return p.value("anneal.moves_proposed") + p.value("anneal.moves_noop");
  };
  m["anneal.mmoves_per_s"] = untraced([&](const PassResult& p) {
    return ratio(moves(p), p.value("anneal.solve_s")) / 1e6;
  });
  m["anneal.acceptance_ratio"] = untraced([](const PassResult& p) {
    return ratio(p.value("anneal.moves_accepted"),
                 p.value("anneal.moves_proposed"));
  });
  m["anneal.noop_ratio"] = untraced([&](const PassResult& p) {
    return ratio(p.value("anneal.moves_noop"), moves(p));
  });
  m["anneal.swap_accept_ratio"] = untraced([](const PassResult& p) {
    return ratio(p.value("anneal.swap_accepts"),
                 p.value("anneal.swap_attempts"));
  });
  m["sim.ns_per_request"] = untraced([](const PassResult& p) {
    return ratio(p.value("sim.run_s"), p.requests) * 1e9;
  });
  m["sim.sharded_parallelism"] = untraced([](const PassResult& p) {
    return ratio(p.value("sim.sharded_cpu_s"), p.value("sim.sharded_run_s"));
  });
  m["sim.cache_overhead_x"] = untraced([](const PassResult& p) {
    return ratio(p.value("sim.cache_run_s"), p.value("sim.nocache_run_s"));
  });
  m["sim.cache_evictions_per_request"] = untraced([](const PassResult& p) {
    return ratio(p.value("sim.cache_evictions"), p.requests);
  });

  // The traced copies only measure the spans themselves (0 untraced).
  m["bench.cold_pass_s"] = run.cold.wall_s;
  m["bench.unattributed_s"] = median(run.spans.unattributed_s);
  const double unattributed = std::accumulate(
      run.spans.unattributed_s.begin(), run.spans.unattributed_s.end(), 0.0);
  if (!run.traced.empty()) {
    m["bench.coverage_pct"] =
        100.0 * (1.0 - ratio(unattributed, run.spans.pass_total_s));
    const double traced_p50 =
        median_of(run.traced, [](const PassResult& p) { return p.wall_s; });
    m["bench.trace_overhead_pct"] =
        100.0 * (ratio(traced_p50, m["pass_p50_s"]) - 1.0);
  }
  m["bench.passes"] = static_cast<double>(run.untraced.size());
  m["bench.threads"] = static_cast<double>(run.threads);
  m["bench.hardware_threads"] =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  return m;
}

// ---------------------------------------------------------------------------
// Manifest: BENCHMARK.json holds the run length, and the names and units this
// binary reports must be exactly the ones it declares.

obs::JsonValue read_manifest(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), [&] { return "cannot read manifest " + path; });
  std::stringstream text;
  text << in.rdbuf();
  return obs::parse_json(text.str());
}

std::vector<std::string> check_manifest(const obs::JsonValue& manifest) {
  std::vector<std::string> problems;
  const auto compare = [&](const char* key,
                           const std::vector<MetricDef>& defs) {
    std::map<std::string, std::string> declared;
    for (const obs::JsonValue& item : manifest.at(key).items()) {
      declared[item.at("name").as_string()] = item.at("unit").as_string();
    }
    std::map<std::string, std::string> emitted;
    for (const MetricDef& def : defs) emitted[def.name] = def.unit;
    for (const auto& [name, unit] : emitted) {
      const auto it = declared.find(name);
      if (it == declared.end()) {
        problems.push_back(std::string(key) + ": " + name + " not declared");
      } else if (it->second != unit) {
        problems.push_back(std::string(key) + ": " + name + " unit " + unit +
                           " declared as " + it->second);
      }
    }
    for (const auto& entry : declared) {
      if (emitted.count(entry.first) == 0) {
        problems.push_back(std::string(key) + ": " + entry.first +
                           " declared but not emitted");
      }
    }
  };
  compare("end_to_end", kEndToEnd);
  compare("per_layer", kPerLayer);
  std::set<std::string> workloads;
  for (const obs::JsonValue& item : manifest.at("workloads").items()) {
    workloads.insert(item.at("name").as_string());
  }
  if (workloads !=
      std::set<std::string>(kWorkloads.begin(), kWorkloads.end())) {
    problems.push_back("workloads differ from this program's");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Output.

void print_span_table(const RunData& run) {
  std::vector<std::pair<std::string, SpanSummary::Layer>> layers(
      run.spans.layers.begin(), run.spans.layers.end());
  std::sort(layers.begin(), layers.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::printf("# %-22s %8s %12s %8s   (%zu traced passes)\n", "span", "calls",
              "self_s", "share", run.traced.size());
  for (const auto& [name, layer] : layers) {
    std::printf("# %-22s %8zu %12.6f %7.2f%%\n", name.c_str(), layer.calls,
                layer.self_s,
                100.0 * ratio(layer.self_s, run.spans.pass_total_s));
  }
  double unattributed = 0.0;
  for (double s : run.spans.unattributed_s) unattributed += s;
  std::printf("# %-22s %8s %12.6f %7.2f%%\n", "(unattributed)", "",
              unattributed,
              100.0 * ratio(unattributed, run.spans.pass_total_s));
}

obs::JsonValue metrics_json(const std::vector<MetricDef>& defs,
                            const std::map<std::string, double>& values) {
  obs::JsonValue metrics = obs::JsonValue::object();
  for (const MetricDef& def : defs) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("value", obs::JsonValue::number(values.at(def.name)));
    entry.set("unit", obs::JsonValue::string(def.unit));
    metrics.set(def.name, std::move(entry));
  }
  return metrics;
}

int run(int argc, char** argv) {
  CliFlags flags("vodrep_benchmark",
                 "End-to-end pipeline benchmark: one workload per process");
  flags.add_string("workload", "", "paper-week | sa-scalable | catalog-1m | "
                                   "sim-month | edge-cache");
  flags.add_int("seed", 2002, "input seed (4004 is the holdout seed)");
  flags.add_double("seconds", 0.0, "measure passes for this long (default: "
                                   "run_seconds of --manifest)");
  flags.add_int("trace", 0, "1 = also run every pass traced and report the "
                            "per-layer metrics");
  flags.add_bool("quick", false, "catalogues / 10, three passes (smoke test)");
  flags.add_string("manifest", "", "BENCHMARK.json: the run length, and the "
                                   "metric names and units to check against");
  flags.add_string("out", "", "directory for the results JSON (and the "
                              "chrome trace with --trace=1)");
  flags.add_string("git-sha", "unknown", "commit recorded in the results");
  if (!flags.parse(argc, argv)) return EXIT_SUCCESS;

  const std::string workload = flags.get_string("workload");
  require(std::find(kWorkloads.begin(), kWorkloads.end(), workload) !=
              kWorkloads.end(),
          [&] { return "unknown --workload '" + workload + "'"; });
  const long long trace_flag = flags.get_int("trace");
  require(trace_flag == 0 || trace_flag == 1, "--trace must be 0 or 1");
  const bool trace = trace_flag == 1;
  const bool quick = flags.get_bool("quick");
  double budget_s = flags.get_double("seconds");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (!flags.get_string("manifest").empty()) {
    const obs::JsonValue manifest = read_manifest(flags.get_string("manifest"));
    const auto problems = check_manifest(manifest);
    for (const std::string& problem : problems) {
      std::cerr << "error: manifest: " << problem << "\n";
    }
    if (!problems.empty()) return EXIT_FAILURE;
    if (budget_s == 0.0) budget_s = manifest.at("run_seconds").as_number();
  }
  require(quick || budget_s > 0.0,
          "give a positive --seconds, or a --manifest to take run_seconds "
          "from");
  const std::size_t cpus = available_cpus();
  // Started once, outside the timed set-up: how long four threads take to
  // start varies by 20-30% from one process to the next on a shared VM,
  // which would swamp the set-up it is part of.
  std::optional<ThreadPool> pool_storage;
  if (uses_pool(workload)) {
    pool_storage.emplace(std::min(kMaxPoolThreads, cpus));
  }
  ThreadPool* const pool = pool_storage ? &*pool_storage : nullptr;

  RunData run;
  const auto setup_start = Clock::now();
  const std::unique_ptr<Workload> world = make_workload(workload, quick, pool);
  run.setup_s.push_back(seconds_between(setup_start, Clock::now()));
  run.threads = world->threads();
  // Every further sample builds and drops worlds back to back for about
  // kSetupSampleSec and records their mean; the tear-downs are untimed.
  const auto setup_sample = [&] {
    double total_s = 0.0;
    std::size_t count = 0;
    while (total_s < kSetupSampleSec) {
      const auto start = Clock::now();
      const auto candidate = make_workload(workload, quick, pool);
      total_s += seconds_between(start, Clock::now());
      ++count;
    }
    run.setup_s.push_back(total_s / static_cast<double>(count));
  };

  const Rng base(seed);
  std::vector<std::uint64_t> seeds;
  SpanLog untraced_log(false);
  SpanLog traced_log(true);
  const auto run_one = [&](std::size_t index, bool traced) {
    SpanLog& log = traced ? traced_log : untraced_log;
    log.set_pass(index);
    PassResult result;
    try {
      Span pass(log, "pass");
      result = world->run_pass(seeds[index], log);
      result.wall_s = pass.stop();
    } catch (const std::exception& error) {
      result.fail(std::string("pass threw: ") + error.what());
    }
    ++run.attempted;
    if (!result.failures.empty()) {
      ++run.failed;
      for (const std::string& what : result.failures) {
        std::cerr << workload << " pass " << index
                  << (traced ? " (traced)" : "") << ": " << what << "\n";
      }
    }
    if (!traced && index < kQualityPasses) run.quality.push_back(result);
    return result;
  };

  seeds.push_back(base.split(0).next_u64());
  run.cold = run_one(0, false);
  const std::size_t max_timed = quick ? kMinTimedPasses : SIZE_MAX;
  const auto measure_start = Clock::now();
  for (std::size_t i = 1; i <= max_timed; ++i) {
    const double elapsed_s = seconds_between(measure_start, Clock::now());
    if (i > kMinTimedPasses && elapsed_s >= budget_s) break;
    // Set-up samples keep pace with the measured time, so setup_s sees the
    // same host as the passes: sample k is due after (k-1)/(n-1) of it.
    while (!quick && run.setup_s.size() < kSetupSamples &&
           static_cast<double>(run.setup_s.size() - 1) * budget_s <=
               elapsed_s * static_cast<double>(kSetupSamples - 1)) {
      setup_sample();
    }
    seeds.push_back(base.split(i).next_u64());
    // Alternate which copy runs first, so warm-up effects cancel out of the
    // trace overhead.
    const bool traced_first = trace && i % 2 == 0;
    if (traced_first) run.traced.push_back(run_one(i, true));
    run.untraced.push_back(run_one(i, false));
    if (trace && !traced_first) run.traced.push_back(run_one(i, true));
  }
  while (run.setup_s.size() < kSetupSamples) setup_sample();
  const CheckCount rechecked = world->recheck(seeds, run.quality);
  run.attempted += rechecked.attempted;
  run.failed += rechecked.failed;
  run.spans = summarize(traced_log.records());
  const std::map<std::string, double> metrics = compute_metrics(run);
  const bool correct = run.failed == 0;

  // Human-readable lines: "workload metric value unit".
  std::cout.precision(6);
  // Parallel metrics carry the threads they actually ran on.
  const std::string threads = std::to_string(run.threads) +
                              (run.threads == 1 ? " thread" : " threads");
  const auto print = [&](const MetricDef& def) {
    const std::string name = def.name;
    const double value = metrics.at(name);
    std::cout << workload << " " << name << " " << value << " " << def.unit;
    if (value > 0.0 && name == "sim_sharded_mreq_per_s") {
      std::cout << " (S=" << run.threads << " on " << threads << ")";
    } else if (value > 0.0 && name == "anneal.parallelism") {
      std::cout << " (4 chains on " << threads << ")";
    }
    std::cout << "\n";
  };
  for (const MetricDef& def : kEndToEnd) print(def);
  for (const MetricDef& def : kEndToEndUngated) print(def);
  if (trace) {
    for (const MetricDef& def : kLayers) print(def);
    print_span_table(run);
  }
  const std::string compiler = VODREP_BENCHMARK_COMPILER;
  const std::string build_type = VODREP_BENCHMARK_BUILD_TYPE;
  std::cout << "# provenance: nproc=" << cpus
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " pool_threads=" << run.threads << " compiler=" << compiler
            << " build=" << build_type << " git=" << flags.get_string("git-sha")
            << " seed=" << seed << " passes=1+" << run.untraced.size()
            << (trace ? "+" + std::to_string(run.traced.size()) + " traced"
                      : "")
            << "\n";

  const std::string out_dir = flags.get_string("out");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + workload + "-s" +
                             std::to_string(seed) + "-t" +
                             std::to_string(trace_flag) + "-p" +
                             std::to_string(static_cast<long long>(getpid()));
    obs::JsonValue results = obs::JsonValue::object();
    results.set("workload", obs::JsonValue::string(workload));
    results.set("seed", obs::JsonValue::integer_u64(seed));
    results.set("trace", obs::JsonValue::boolean(trace));
    results.set("quick", obs::JsonValue::boolean(quick));
    results.set("correct", obs::JsonValue::boolean(correct));
    results.set("attempted", obs::JsonValue::integer_u64(run.attempted));
    results.set("failed", obs::JsonValue::integer_u64(run.failed));
    obs::JsonValue provenance = obs::JsonValue::object();
    provenance.set("nproc", obs::JsonValue::integer_u64(cpus));
    provenance.set(
        "hardware_concurrency",
        obs::JsonValue::integer_u64(std::thread::hardware_concurrency()));
    provenance.set("pool_threads", obs::JsonValue::integer_u64(run.threads));
    provenance.set("compiler", obs::JsonValue::string(compiler));
    provenance.set("build_type", obs::JsonValue::string(build_type));
    provenance.set("git_sha",
                   obs::JsonValue::string(flags.get_string("git-sha")));
    provenance.set("seconds", obs::JsonValue::number(budget_s));
    provenance.set("timed_passes",
                   obs::JsonValue::integer_u64(run.untraced.size()));
    provenance.set("traced_passes",
                   obs::JsonValue::integer_u64(run.traced.size()));
    results.set("provenance", std::move(provenance));
    results.set("metrics", metrics_json(concat(kEndToEnd, kPerLayer), metrics));
    obs::JsonValue pass_s = obs::JsonValue::array();
    for (const PassResult& p : run.untraced) {
      pass_s.push_back(obs::JsonValue::number(p.wall_s));
    }
    results.set("pass_s", std::move(pass_s));
    std::ofstream file(stem + ".json");
    results.write(file);
    file << "\n";
    require(file.good(), [&] { return "cannot write " + stem + ".json"; });
    if (trace) {
      std::ofstream chrome(stem + ".trace.json");
      traced_log.write_chrome_trace(chrome);
      require(chrome.good(),
              [&] { return "cannot write " + stem + ".trace.json"; });
    }
  }

  obs::JsonValue line = obs::JsonValue::object();
  line.set("correct", obs::JsonValue::boolean(correct));
  line.set("attempted", obs::JsonValue::integer_u64(run.attempted));
  line.set("failed", obs::JsonValue::integer_u64(run.failed));
  line.set("metrics", metrics_json(trace ? kPerLayer : kEndToEnd, metrics));
  std::cout << line.dump() << std::endl;
  return correct ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
