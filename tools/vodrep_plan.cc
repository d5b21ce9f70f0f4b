// vodrep_plan — the operational placement planner.
//
// Computes a replication plan and placement for a cluster and writes it in
// the vodrep-layout exchange format, or inspects an existing layout file.
//
//   # plan 300 Zipf(0.75) videos onto 8 servers at degree 1.2
//   vodrep_plan --videos=300 --theta=0.75 --servers=8 --degree=1.2
//               --output=layout.txt
//
//   # plan from measured per-video request counts (one weight per line,
//   # line number = video id)
//   vodrep_plan --popularity-file=counts.txt --servers=8 --degree=1.3
//
//   # inspect an existing layout
//   vodrep_plan --inspect=layout.txt
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/layout_io.h"
#include "src/core/objective.h"
#include "src/core/pipeline.h"
#include "src/core/sa_solver.h"
#include "src/core/scalable.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/online/controller.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/run_report.h"
#include "src/sim/sharded_engine.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/trace.h"
#include "src/util/table.h"
#include "src/workload/popularity.h"

namespace {

using namespace vodrep;

std::vector<double> read_weights(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in),
          [&] { return "cannot open popularity file: " + path; });
  std::vector<double> weights;
  double w = 0.0;
  while (in >> w) weights.push_back(w);
  require(!weights.empty(), [&] { return "popularity file is empty: " + path; });
  return weights;
}

void print_summary(const Layout& layout, const std::vector<double>& popularity,
                   std::size_t servers) {
  const ReplicationPlan plan = layout.implied_plan();
  const auto loads = layout.expected_loads(popularity, servers);
  const auto counts = layout.replicas_per_server(servers);
  std::cout << "videos: " << layout.num_videos()
            << ", replicas: " << plan.total_replicas() << " (degree "
            << plan.degree() << ")\n"
            << "expected-load imbalance L (Eq. 2): "
            << 100.0 * imbalance_max_relative(loads) << " %\n\n";
  Table table({"server", "replicas", "expected_load_share%"});
  table.set_precision(2);
  for (std::size_t s = 0; s < servers; ++s) {
    table.add_row({static_cast<long long>(s),
                   static_cast<long long>(counts[s]), 100.0 * loads[s]});
  }
  table.print(std::cout);
}

// Fail-fast diagnostic for every --*-out flag: probe that the path is
// writable before doing any expensive work, so a typoed directory fails in
// milliseconds with a clear message instead of after a full simulation.
// Probes in append mode so an existing file is not truncated by the probe.
void require_writable(const std::string& path, const char* what) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  require(probe.good(), [&] {
    return std::string("cannot write ") + what + " file: " + path;
  });
}

// Enables the obs layer when an export flag is set, and writes the
// requested JSON files on the way out of every code path (plan / inspect /
// evaluate).  The metrics file reconciles bit-exactly with the printed
// summary because both read the same result structs.  --trace-out and
// --profile-out both arm the one trace recorder: the trace file is its
// spans, the profile their per-path aggregate.
class ObsExports {
 public:
  ObsExports(std::string metrics_path, std::string trace_path,
             std::string profile_path)
      : metrics_path_(std::move(metrics_path)),
        trace_path_(std::move(trace_path)),
        profile_path_(std::move(profile_path)) {
    if (!metrics_path_.empty()) obs::set_metrics_enabled(true);
    if (!trace_path_.empty() || !profile_path_.empty()) {
      obs::TraceRecorder::global().set_enabled(true);
    }
  }

  /// The profile for embedding into a run report: the versioned JSON
  /// object when --profile-out was given, null otherwise (build_run_report
  /// then omits the optional `profile` section).
  [[nodiscard]] obs::JsonValue profile_json() const {
    if (profile_path_.empty()) return obs::JsonValue::null();
    return obs::profile_json(obs::TraceRecorder::global());
  }

  void write() const {
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      require(out.good(),
              [&] { return "cannot write metrics file: " + metrics_path_; });
      obs::metrics().write_json(out);
      out.flush();
      require(out.good(),
              [&] { return "cannot write metrics file: " + metrics_path_; });
      std::cout << "metrics written to " << metrics_path_ << "\n";
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      require(out.good(),
              [&] { return "cannot write trace file: " + trace_path_; });
      obs::TraceRecorder::global().write_json(out);
      out.flush();
      require(out.good(),
              [&] { return "cannot write trace file: " + trace_path_; });
      std::cout << "trace written to " << trace_path_
                << " (load in Perfetto / chrome://tracing)\n";
    }
    if (!profile_path_.empty()) {
      std::ofstream out(profile_path_);
      require(out.good(),
              [&] { return "cannot write profile file: " + profile_path_; });
      profile_json().write(out);
      out << "\n";
      out.flush();
      require(out.good(),
              [&] { return "cannot write profile file: " + profile_path_; });
      std::cout << "profile written to " << profile_path_
                << " (render with vodrep_report)\n";
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_path_;
};

// Upper bound on --sa-chains.  Each chain owns an Rng and a whole
// incremental state, so the count sizes the solve's memory; the bound sits
// far above the 32-chain ladder DESIGN.md §5a plans with.
constexpr long long kMaxSaChains = 256;

// Rejects bad numeric flags before anything divides by or casts them: a
// zero --servers divides by zero, a negative --degree is undefined when
// cast to a replica budget, a negative --sa-moves wraps to an endless move
// count, a zero --bitrate-mbps sizes the report's arrival rate to
// infinity, a NaN --storage-gb passes every capacity comparison, and a
// negative --timeline-interval would pass for its 0 default.
void validate_numeric_flags(const CliFlags& flags) {
  for (const char* name : {"servers", "videos", "event-log-cap",
                           "sa-temp-steps", "sa-moves", "sa-swap-period"}) {
    require(flags.get_int(name) >= 1,
            [&] { return std::string("--") + name + " must be >= 1"; });
  }
  for (const char* name : {"degree", "bandwidth-gbps", "bitrate-mbps",
                           "duration-min", "storage-gb"}) {
    const double value = flags.get_double(name);
    require(std::isfinite(value) && value > 0.0, [&] {
      return std::string("--") + name + " must be finite and positive";
    });
  }
  for (const char* name : {"sim-lambda", "sa-lambda", "timeline-interval"}) {
    const double value = flags.get_double(name);
    require(std::isfinite(value) && value >= 0.0, [&] {
      return std::string("--") + name + " must be finite and non-negative";
    });
  }
  require(flags.get_int("online-epochs") >= 0,
          "--online-epochs must be >= 0");
  const double spread = flags.get_double("sa-temp-spread");
  require(std::isfinite(spread) && spread >= 1.0,
          "--sa-temp-spread must be finite and >= 1");
  const long long chains = flags.get_int("sa-chains");
  require(chains >= 0 && chains <= kMaxSaChains, [&] {
    return "--sa-chains must be in [0, " + std::to_string(kMaxSaChains) + "]";
  });
}

// Parses the --cache-* flags into prefix-cache tier options.
PrefixCacheOptions make_cache_options(const CliFlags& flags) {
  PrefixCacheOptions options;
  const std::string& policy = flags.get_string("cache-policy");
  if (policy == "lru") {
    options.eviction = CacheEvictionPolicy::kLru;
  } else if (policy == "lfu") {
    options.eviction = CacheEvictionPolicy::kLfu;
  } else {
    require(false, [&] { return "unknown --cache-policy: " + policy; });
  }
  options.capacity_bytes =
      units::gigabytes(flags.get_double("cache-capacity-gb"));
  options.uniform_prefix_fraction = flags.get_double("cache-prefix-fraction");
  return options;
}

// Runs the evaluate/report simulation of the replicated organization,
// fronted under --prefix-cache by an edge prefix-cache tier.
SimResult run_sim(const CliFlags& flags, const Layout& layout,
                  const SimConfig& config, const RequestTrace& trace,
                  obs::TimeseriesCollector* timeline,
                  obs::EventLog* event_log) {
  ReplicatedPolicy policy(layout, config,
                          flags.get_bool("prefix-cache")
                              ? make_cache_options(flags)
                              : PrefixCacheOptions{});
  return simulate(policy, trace, {timeline, event_log});
}

void print_cache_summary(const CliFlags& flags, const SimResult& result) {
  if (!flags.get_bool("prefix-cache")) return;
  std::cout << "edge cache (" << flags.get_string("cache-policy")
            << "): " << result.cache_hits << " hits, " << result.cache_misses
            << " misses (" << 100.0 * result.cache_hit_ratio()
            << " % hit ratio), " << result.cache_evictions << " evictions\n";
}

void write_report(const obs::JsonValue& report, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), [&] { return "cannot write report file: " + path; });
  report.write(out);
  out << "\n";
  out.flush();
  require(out.good(), [&] { return "cannot write report file: " + path; });
  std::cout << "run report written to " << path
            << " (render with vodrep_report)\n";
}

int run(int argc, char** argv) {
  CliFlags flags("vodrep_plan", "Compute or inspect a cluster placement");
  flags.add_int("videos", 300, "catalogue size (ignored with --popularity-file)");
  flags.add_double("theta", 0.75, "Zipf skew for synthetic popularity");
  flags.add_string("popularity-file", "",
                   "one weight per line, line number = video id");
  flags.add_int("servers", 8, "cluster size N");
  flags.add_double("degree", 1.2, "target replication degree");
  flags.add_string("replication", "adams",
                   "adams | zipf | classification | uniform");
  flags.add_string("placement", "slf", "slf | round-robin | best-fit");
  flags.add_string("output", "", "write the layout here ('-' for stdout)");
  flags.add_string("inspect", "", "read and summarize an existing layout");
  flags.add_string("evaluate", "",
                   "simulate a layout (--inspect) against this trace file");
  flags.add_double("bandwidth-gbps", 1.8, "per-server bandwidth for --evaluate");
  flags.add_double("bitrate-mbps", 4.0, "stream bit rate for --evaluate");
  flags.add_double("duration-min", 90.0, "video duration for --evaluate");
  flags.add_string("metrics-out", "",
                   "enable metrics and write the registry JSON here");
  flags.add_string("trace-out", "",
                   "enable tracing and write chrome://tracing JSON here");
  flags.add_string("profile-out", "",
                   "enable tracing and write the spans' per-path wall/CPU "
                   "profile JSON here; also embedded in --report-out "
                   "reports as the 'profile' section");
  flags.add_string("report-out", "",
                   "simulate the plan and write a self-describing JSON run "
                   "report here (render with vodrep_report)");
  flags.add_int("online-epochs", 0,
                "with --report-out: replay this many epochs through the "
                "adaptive controller (replans annotated on the timeline)");
  flags.add_double("sim-lambda", 0.0,
                   "report simulation arrival rate in requests/sec "
                   "(0 = auto-size to ~90% cluster stream capacity)");
  flags.add_int("sim-seed", 2002, "report simulation trace seed");
  flags.add_double("timeline-interval", 0.0,
                   "report timeline sampling interval in seconds "
                   "(0 = horizon / 64)");
  flags.add_int("event-log-cap", 10000,
                "report per-request event-log capacity (older requests "
                "beyond it are dropped and counted)");
  flags.add_int("sa-chains", 0,
                "plan scalable encoding rates with the Section 4.3 "
                "simulated-annealing solver using this many "
                "parallel-tempering chains (0 = heuristic pipeline)");
  flags.add_int("sa-swap-period", 8,
                "temperature steps between replica-exchange rounds");
  flags.add_double("sa-temp-spread", 1.15,
                   "geometric spread between adjacent tempering-chain "
                   "temperatures (> 1; 1.15 keeps a 32-chain ladder within "
                   "~2 decades, see DESIGN.md)");
  flags.add_bool("prefix-cache", false,
                 "front the simulated origin cluster with an edge "
                 "prefix-cache tier (--evaluate / --report-out)");
  flags.add_string("cache-policy", "lru",
                   "edge-cache eviction policy: lru | lfu");
  flags.add_double("cache-capacity-gb", 8.0,
                   "edge prefix-cache capacity in GB (0 = tier disabled, "
                   "identical to the plain replicated simulation)");
  flags.add_double("cache-prefix-fraction", 0.25,
                   "stored prefix fraction per video, in (0, 1]");
  flags.add_int("sa-temp-steps", 200, "annealing temperature-step cap");
  flags.add_int("sa-moves", 200, "moves per temperature step");
  flags.add_int("sa-seed", 2002, "annealer seed (output is deterministic in "
                                 "it, independent of thread count)");
  flags.add_double("sa-lambda", 30.0,
                   "peak arrival rate for the SA load model, requests/minute");
  flags.add_double("storage-gb", 120.0,
                   "per-server storage budget for --sa-chains, GB");
  if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
  validate_numeric_flags(flags);

  const ObsExports exports(flags.get_string("metrics-out"),
                           flags.get_string("trace-out"),
                           flags.get_string("profile-out"));
  require_writable(flags.get_string("metrics-out"), "metrics");
  require_writable(flags.get_string("trace-out"), "trace");
  require_writable(flags.get_string("profile-out"), "profile");
  require_writable(flags.get_string("report-out"), "report");
  const auto servers = static_cast<std::size_t>(flags.get_int("servers"));
  const std::string report_path = flags.get_string("report-out");

  if (!flags.get_string("evaluate").empty()) {
    require(!flags.get_string("inspect").empty(),
            "--evaluate needs --inspect=<layout file>");
    std::ifstream layout_in(flags.get_string("inspect"));
    require(static_cast<bool>(layout_in), [&] {
      return "cannot open layout file: " + flags.get_string("inspect");
    });
    const PlacementFile placement = load_placement(layout_in);
    std::ifstream trace_in(flags.get_string("evaluate"));
    require(static_cast<bool>(trace_in), [&] {
      return "cannot open trace file: " + flags.get_string("evaluate");
    });
    const RequestTrace trace = load_trace(trace_in);

    SimConfig config;
    config.num_servers = placement.num_servers;
    config.bandwidth_bps_per_server =
        units::gbps(flags.get_double("bandwidth-gbps"));
    config.stream_bitrate_bps = units::mbps(flags.get_double("bitrate-mbps"));
    config.video_duration_sec =
        units::minutes(flags.get_double("duration-min"));
    std::unique_ptr<obs::TimeseriesCollector> timeline;
    std::unique_ptr<obs::EventLog> event_log;
    if (!report_path.empty()) {
      double interval = flags.get_double("timeline-interval");
      if (interval <= 0.0) interval = trace.horizon / 64.0;
      obs::TimeseriesConfig ts;
      ts.interval_sec = interval;
      timeline = std::make_unique<obs::TimeseriesCollector>(
          ts, config.num_servers);
      event_log = std::make_unique<obs::EventLog>(
          static_cast<std::size_t>(flags.get_int("event-log-cap")));
    }
    const SimResult result = run_sim(flags, placement.layout, config, trace,
                                     timeline.get(), event_log.get());
    if (!report_path.empty()) {
      obs::JsonValue extra = obs::JsonValue::object();
      extra.set("layout_file",
                obs::JsonValue::string(flags.get_string("inspect")));
      extra.set("trace_file",
                obs::JsonValue::string(flags.get_string("evaluate")));
      extra.set("sim_horizon_sec", obs::JsonValue::number(trace.horizon));
      extra.set("prefix_cache",
                obs::JsonValue::boolean(flags.get_bool("prefix-cache")));
      write_report(build_run_report(config, result, timeline.get(),
                                    event_log.get(), std::move(extra),
                                    exports.profile_json()),
                   report_path);
    }

    std::cout << "== " << flags.get_string("inspect") << " vs "
              << flags.get_string("evaluate") << " ==\n"
              << "requests: " << result.total_requests
              << ", rejected: " << result.rejected << " ("
              << 100.0 * result.rejection_rate() << " %)\n"
              << "time-averaged L (Eq. 2): "
              << 100.0 * result.mean_imbalance_eq2 << " %\n"
              << "mean link utilization: "
              << 100.0 * result.mean_utilization() << " %\n";
    print_cache_summary(flags, result);
    exports.write();
    return EXIT_SUCCESS;
  }

  if (!flags.get_string("inspect").empty()) {
    require(report_path.empty(),
            "--report-out needs a simulation: pair --inspect with --evaluate, "
            "or drop --inspect to simulate a fresh plan");
    std::ifstream in(flags.get_string("inspect"));
    require(static_cast<bool>(in), [&] {
      return "cannot open layout file: " + flags.get_string("inspect");
    });
    const PlacementFile placement = load_placement(in);
    std::cout << "== " << flags.get_string("inspect") << " ==\n";
    // Without the original popularity, summarize with a uniform one.
    print_summary(placement.layout,
                  uniform_popularity(placement.layout.num_videos()),
                  placement.num_servers);
    std::cout << "\n(expected loads shown under uniform popularity; re-run "
                 "with the original\n popularity file for the provisioning "
                 "view)\n";
    exports.write();
    return EXIT_SUCCESS;
  }

  std::vector<double> popularity;
  if (!flags.get_string("popularity-file").empty()) {
    popularity = normalized_popularity(
        read_weights(flags.get_string("popularity-file")));
  } else {
    popularity = zipf_popularity(
        static_cast<std::size_t>(flags.get_int("videos")),
        flags.get_double("theta"));
  }
  const auto sa_chains = static_cast<std::size_t>(flags.get_int("sa-chains"));
  if (sa_chains >= 1) {
    // Scalable-rate planning (paper Section 4.3): jointly choose encoding
    // bit rates, replica counts, and placement by parallel-tempering SA.
    require(report_path.empty(),
            "--sa-chains plans encoding rates, which the run-report "
            "simulation does not model yet; drop --report-out");
    ScalableProblem problem;
    problem.videos.duration_sec =
        units::minutes(flags.get_double("duration-min"));
    problem.videos.popularity = popularity;
    problem.cluster.num_servers = servers;
    problem.cluster.bandwidth_bps_per_server =
        units::gbps(flags.get_double("bandwidth-gbps"));
    problem.cluster.storage_bytes_per_server =
        units::gigabytes(flags.get_double("storage-gb"));
    problem.ladder.rates_bps = {units::mbps(1), units::mbps(2),
                                units::mbps(3), units::mbps(4),
                                units::mbps(6), units::mbps(8)};
    problem.expected_peak_requests =
        flags.get_double("sa-lambda") * flags.get_double("duration-min");
    problem.weights.alpha = 1.0;
    problem.weights.beta = 1.0;

    SaSolverOptions options;
    options.anneal.final_temperature = 1e-3;
    options.anneal.max_temperature_steps =
        static_cast<std::size_t>(flags.get_int("sa-temp-steps"));
    options.anneal.moves_per_temperature =
        static_cast<std::size_t>(flags.get_int("sa-moves"));
    options.anneal.swap_period =
        static_cast<std::size_t>(flags.get_int("sa-swap-period"));
    options.anneal.temperature_spread = flags.get_double("sa-temp-spread");
    options.chains = sa_chains;
    ThreadPool pool;
    const SaSolverResult result = solve_scalable(
        problem, static_cast<std::uint64_t>(flags.get_int("sa-seed")),
        options, sa_chains > 1 ? &pool : nullptr);

    // Hard-constraint audit (Eqs. 4, 6, 7 from first principles); bandwidth
    // (Eq. 5) is the solver's soft constraint, reported via `feasible`.
    const AuditReport audit =
        LayoutAuditor::audit_solution(problem, result.solution);
    require(audit.ok_ignoring(ViolationKind::kBandwidthOverflow),
            [&] { return "SA layout failed audit: " + audit.summary(); });

    double mean_rate_bps = 0.0;
    double replicas = 0.0;
    for (double rate : result.solution.bitrates(problem.ladder)) {
      mean_rate_bps += rate;
    }
    for (const auto& hosts : result.solution.placement) {
      replicas += static_cast<double>(hosts.size());
    }
    const double m_count = static_cast<double>(popularity.size());
    std::cout << "== plan: simulated annealing (" << sa_chains
              << " tempering chain" << (sa_chains > 1 ? "s" : "")
              << ", swap period " << options.anneal.swap_period << ") ==\n"
              << "objective (Eq. 1): " << result.objective
              << (result.feasible ? "  [feasible]"
                                  : "  [bandwidth overflow tolerated]")
              << "\nmean encoding rate: "
              << units::to_mbps(mean_rate_bps / m_count)
              << " Mb/s, mean degree: " << replicas / m_count << "\n"
              << "audit: " << audit.summary() << "\n"
              << "winning chain: " << result.anneal.winning_chain << " of "
              << sa_chains << ", exchanges accepted: "
              << result.anneal.swap_accepts << "/"
              << result.anneal.swap_attempts << "\n";
    Table chain_table(
        {"chain", "proposed", "accepted", "noop", "swaps", "best_cost"});
    chain_table.set_precision(4);
    for (std::size_t c = 0; c < result.anneal.chains.size(); ++c) {
      const AnnealChainStats& stats = result.anneal.chains[c];
      chain_table.add_row({static_cast<long long>(c),
                           static_cast<long long>(stats.moves_proposed),
                           static_cast<long long>(stats.moves_accepted),
                           static_cast<long long>(stats.moves_noop),
                           static_cast<long long>(stats.swaps_accepted),
                           stats.best_cost});
    }
    chain_table.print(std::cout);
    exports.write();
    return EXIT_SUCCESS;
  }

  const auto budget = static_cast<std::size_t>(
      flags.get_double("degree") * static_cast<double>(popularity.size()));
  const std::size_t capacity = (budget + servers - 1) / servers;

  const auto replication =
      make_replication_policy(flags.get_string("replication"));
  const auto placement_policy =
      make_placement_policy(flags.get_string("placement"));
  ReplicationPlan plan;
  Layout layout;
  {
    VODREP_TRACE_SCOPE("plan.provision");
    plan = replication->replicate(popularity, servers, budget);
    layout = placement_policy->place(plan, popularity, servers, capacity);
  }
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry& registry = obs::metrics();
    registry.counter("plan.videos").add(layout.num_videos());
    registry.counter("plan.replicas").add(plan.total_replicas());
    registry.gauge("plan.degree").set(plan.degree());
    registry.gauge("plan.expected_imbalance_eq2")
        .set(imbalance_max_relative(
            layout.expected_loads(popularity, servers)));
  }

  std::cout << "== plan: " << flags.get_string("replication") << " + "
            << flags.get_string("placement") << " ==\n";
  print_summary(layout, popularity, servers);

  const std::string output = flags.get_string("output");
  if (!output.empty()) {
    PlacementFile placement;
    placement.num_servers = servers;
    placement.layout = layout;
    if (output == "-") {
      save_placement(std::cout, placement);
    } else {
      std::ofstream out(output);
      require(static_cast<bool>(out),
              [&] { return "cannot write layout file: " + output; });
      save_placement(out, placement);
      std::cout << "\nlayout written to " << output << "\n";
    }
  }

  if (!report_path.empty()) {
    // Simulate the freshly planned layout on a synthetic Poisson/Zipf trace
    // and capture the full observability record: load timeline, per-request
    // event log, and the typed rejection breakdown.
    SimConfig sim;
    sim.num_servers = servers;
    sim.bandwidth_bps_per_server =
        units::gbps(flags.get_double("bandwidth-gbps"));
    sim.stream_bitrate_bps = units::mbps(flags.get_double("bitrate-mbps"));
    sim.video_duration_sec = units::minutes(flags.get_double("duration-min"));
    const double horizon = sim.video_duration_sec;

    double lambda = flags.get_double("sim-lambda");
    if (lambda <= 0.0) {
      // Auto-size to ~90% of the cluster's steady-state stream capacity:
      // concurrency lambda * duration = 0.9 * N * (B / bitrate).
      lambda = 0.9 * static_cast<double>(servers) *
               (sim.bandwidth_bps_per_server / sim.stream_bitrate_bps) /
               sim.video_duration_sec;
    }
    double interval = flags.get_double("timeline-interval");
    if (interval <= 0.0) interval = horizon / 64.0;

    obs::TimeseriesConfig ts;
    ts.interval_sec = interval;
    obs::TimeseriesCollector timeline(ts, servers);
    obs::EventLog event_log(
        static_cast<std::size_t>(flags.get_int("event-log-cap")));
    Rng rng(static_cast<std::uint64_t>(flags.get_int("sim-seed")));
    TraceSpec spec;
    spec.arrival_rate = lambda;
    spec.horizon = horizon;
    spec.popularity = popularity;

    const auto epochs =
        static_cast<std::size_t>(flags.get_int("online-epochs"));
    std::vector<SimResult> results;
    if (epochs == 0) {
      results.push_back(run_sim(flags, layout, sim, generate_trace(rng, spec),
                                &timeline, &event_log));
    } else {
      require(!flags.get_bool("prefix-cache"),
              "--prefix-cache does not compose with --online-epochs yet: the "
              "adaptive controller replans the origin layout but the edge "
              "tier's residency would carry across replans; drop one");
      // Multi-epoch online path: the adaptive controller re-provisions
      // between epochs; each replan lands on the timeline as an annotation
      // at its (global-time) epoch boundary.
      ControllerConfig controller_config;
      controller_config.replication = flags.get_string("replication");
      controller_config.placement = flags.get_string("placement");
      controller_config.num_servers = servers;
      controller_config.budget = budget;
      controller_config.capacity_per_server = capacity;
      AdaptiveController controller(controller_config, popularity);
      controller.set_timeline(&timeline);
      for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        const RequestTrace trace = generate_trace(rng, spec);
        const double offset = static_cast<double>(epoch) * horizon;
        timeline.set_time_offset(offset);
        event_log.set_time_offset(offset);
        results.push_back(run_sim(flags, controller.layout(), sim, trace,
                                  &timeline, &event_log));
        controller.observe_epoch(trace.video_counts(popularity.size()));
        (void)controller.adapt(static_cast<double>(epoch + 1) * horizon);
      }
    }
    const SimResult result = aggregate_results(results);

    obs::JsonValue extra = obs::JsonValue::object();
    extra.set("num_videos", obs::JsonValue::integer_u64(popularity.size()));
    extra.set("replication",
              obs::JsonValue::string(flags.get_string("replication")));
    extra.set("placement",
              obs::JsonValue::string(flags.get_string("placement")));
    extra.set("replica_budget", obs::JsonValue::integer_u64(budget));
    extra.set("sim_lambda_per_sec", obs::JsonValue::number(lambda));
    extra.set("sim_seed", obs::JsonValue::integer(flags.get_int("sim-seed")));
    extra.set("sim_horizon_sec", obs::JsonValue::number(horizon));
    extra.set("online_epochs", obs::JsonValue::integer_u64(epochs));
    extra.set("prefix_cache",
              obs::JsonValue::boolean(flags.get_bool("prefix-cache")));
    write_report(build_run_report(sim, result, &timeline, &event_log,
                                  std::move(extra), exports.profile_json()),
                 report_path);
    std::cout << "report simulation: " << result.total_requests
              << " requests, " << result.rejected << " rejected ("
              << 100.0 * result.rejection_rate() << " %), "
              << timeline.size() << " timeline samples\n";
    print_cache_summary(flags, result);
  }
  exports.write();
  return EXIT_SUCCESS;
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
