// Simulation hot-path benchmark: the seed per-event O(N) metric rescan vs
// the unified SimEngine's incremental accumulator (events/sec).
//
// `seed_simulate` below preserves the pre-engine replication simulator
// verbatim — a std::priority_queue of departures and a LoadIntegrator that
// rebuilds the utilization vector and rescans all N servers at every event
// — so the speedup reported here stays honest across future PRs even as
// the engine evolves.  Both paths replay the identical trace and layout
// (batching disabled, so events = arrivals + admitted departures) and the
// benchmark asserts that they produce the same SimResult before reporting.
//
// The benchmark also carries the engine's observability-overhead guard
// (the vodrep_sa_hotpath precedent): replay_without_hooks
// (bench/obs_baseline.h) runs the library's own engine and replicated
// policy compiled a second time with every obs hook compiled out, and must
// return exactly the library's SimResult.  The engine with obs compiled in
// but disabled must stay within 3% of it or the benchmark exits non-zero.
// A second guard prices the *enabled* TraceRecorder on the same whole
// replay: with the recorder on, it must stay within 10% of the
// trace-disabled one.  Both guards time their two sides in
// alternation (time_paired).
//
// The last stdout line is machine-readable JSON.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "bench/obs_baseline.h"
#include "src/core/objective.h"
#include "src/core/pipeline.h"
#include "src/obs/trace.h"
#include "src/sim/replicated_policy.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;

// ---------------------------------------------------------------------------
// The seed replication simulator, kept verbatim as the benchmark baseline.
// ---------------------------------------------------------------------------

struct SeedDeparture {
  double time;
  std::size_t server;
  bool via_backbone;

  bool operator>(const SeedDeparture& other) const {
    return time > other.time;
  }
};

class SeedLoadIntegrator {
 public:
  explicit SeedLoadIntegrator(std::vector<double> capacities_bps)
      : capacities_bps_(std::move(capacities_bps)),
        busy_integral_(capacities_bps_.size(), 0.0) {}

  void advance(const std::vector<StreamingServer>& servers, double now) {
    const double dt = now - last_time_;
    if (dt > 0.0) {
      std::vector<double> utilization(servers.size());
      double sum = 0.0;
      double max = 0.0;
      for (std::size_t s = 0; s < servers.size(); ++s) {
        const double busy = servers[s].busy_bps();
        busy_integral_[s] += busy * dt;
        utilization[s] = busy / capacities_bps_[s];
        sum += utilization[s];
        max = std::max(max, utilization[s]);
      }
      const double mean = sum / static_cast<double>(servers.size());
      const double eq2 = imbalance_max_relative(utilization);
      imbalance_eq2_.add(eq2, dt);
      imbalance_cv_.add(imbalance_cv(utilization), dt);
      imbalance_capacity_.add(std::max(0.0, max - mean), dt);
      peak_eq2_ = std::max(peak_eq2_, eq2);
      last_time_ = now;
    }
  }

  [[nodiscard]] double mean_eq2() const { return imbalance_eq2_.mean(); }
  [[nodiscard]] double mean_cv() const { return imbalance_cv_.mean(); }
  [[nodiscard]] double mean_capacity() const {
    return imbalance_capacity_.mean();
  }
  [[nodiscard]] double peak_eq2() const { return peak_eq2_; }
  [[nodiscard]] std::vector<double> mean_utilization(double horizon) const {
    std::vector<double> util(busy_integral_.size(), 0.0);
    if (horizon > 0.0) {
      for (std::size_t s = 0; s < util.size(); ++s) {
        util[s] = busy_integral_[s] / (horizon * capacities_bps_[s]);
      }
    }
    return util;
  }

 private:
  std::vector<double> capacities_bps_;
  double last_time_ = 0.0;
  TimeWeightedMean imbalance_eq2_;
  TimeWeightedMean imbalance_cv_;
  TimeWeightedMean imbalance_capacity_;
  double peak_eq2_ = 0.0;
  std::vector<double> busy_integral_;
};

SimResult seed_simulate(const Layout& layout, const SimConfig& config,
                        const RequestTrace& trace) {
  config.validate();
  require(trace.is_well_formed(), "seed_simulate: malformed trace");

  std::vector<StreamingServer> servers;
  std::vector<double> capacities(config.num_servers);
  servers.reserve(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    capacities[s] = config.bandwidth_of(s);
    servers.emplace_back(capacities[s]);
  }
  Dispatcher dispatcher(layout, config.redirect, config.backbone_bps,
                        config.batching_window_sec, config.video_duration_sec,
                        config.batching_mode);
  std::priority_queue<SeedDeparture, std::vector<SeedDeparture>,
                      std::greater<>>
      departures;
  SeedLoadIntegrator integrator(capacities);

  SimResult result;
  result.total_requests = trace.size();

  std::size_t next_failure = 0;
  auto drain_until = [&](double now) {
    for (;;) {
      const bool have_departure =
          !departures.empty() && departures.top().time <= now;
      const bool have_failure =
          next_failure < config.failures.size() &&
          config.failures[next_failure].time <= now;
      if (have_failure &&
          (!have_departure ||
           config.failures[next_failure].time <= departures.top().time)) {
        const ServerFailure& failure = config.failures[next_failure++];
        integrator.advance(servers, failure.time);
        result.disrupted += servers[failure.server].fail();
        dispatcher.on_server_failed(failure.server);
        continue;
      }
      if (!have_departure) break;
      const SeedDeparture d = departures.top();
      departures.pop();
      integrator.advance(servers, d.time);
      if (!servers[d.server].failed()) {
        servers[d.server].release(config.stream_bitrate_bps);
      }
      if (d.via_backbone) {
        dispatcher.release_backbone(config.stream_bitrate_bps);
      }
    }
    integrator.advance(servers, now);
  };

  for (const Request& request : trace.requests) {
    drain_until(request.arrival_time);
    const auto decision =
        dispatcher.dispatch(request.video, config.stream_bitrate_bps, servers,
                            request.arrival_time);
    if (!decision.has_value()) {
      ++result.rejected;
      continue;
    }
    if (decision->reserves_bandwidth()) {
      servers[decision->server].admit(config.stream_bitrate_bps);
    }
    if (decision->batched) {
      ++result.batched;
      if (decision->patch_duration_sec > 0.0) {
        departures.push(
            SeedDeparture{request.arrival_time + decision->patch_duration_sec,
                          decision->server, false});
      }
      continue;
    }
    if (decision->redirected) ++result.redirected;
    if (decision->via_backbone) ++result.proxied;
    departures.push(SeedDeparture{
        request.arrival_time +
            request.watch_fraction * config.video_duration_sec,
        decision->server, decision->via_backbone});
  }
  drain_until(trace.horizon);

  result.mean_imbalance_eq2 = integrator.mean_eq2();
  result.mean_imbalance_cv = integrator.mean_cv();
  result.mean_imbalance_capacity = integrator.mean_capacity();
  result.peak_imbalance_eq2 = integrator.peak_eq2();
  result.served_per_server.resize(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    result.served_per_server[s] = servers[s].served_total();
  }
  result.utilization_per_server = integrator.mean_utilization(trace.horizon);
  return result;
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct RunStats {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::size_t events = 0;
  SimResult result;
};

template <typename Fn>
RunStats time_replays(Fn&& replay, std::size_t reps) {
  RunStats stats;
  double total_seconds = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    stats.result = replay();
    const auto stop = std::chrono::steady_clock::now();
    total_seconds += std::chrono::duration<double>(stop - start).count();
  }
  // Batching is disabled, so every non-rejected request schedules exactly
  // one departure: events = arrivals + admitted departures.
  stats.events =
      reps * (stats.result.total_requests +
              (stats.result.total_requests - stats.result.rejected));
  stats.seconds = total_seconds;
  stats.events_per_sec =
      static_cast<double>(stats.events) / std::max(total_seconds, 1e-12);
  return stats;
}

/// Aborts on an empty result, so a timed replay cannot be optimized away.
void keep_live(const SimResult& result) {
  if (result.total_requests == 0) std::abort();
}

void require_same(const SimResult& seed, const SimResult& engine) {
  require(seed.rejected == engine.rejected &&
              seed.redirected == engine.redirected &&
              seed.proxied == engine.proxied &&
              seed.batched == engine.batched &&
              seed.disrupted == engine.disrupted &&
              seed.served_per_server == engine.served_per_server,
          "sim_hotpath: engine diverged from the seed simulator");
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("vodrep_sim_hotpath",
                 "simulation hot path: seed O(N)-rescan event loop vs "
                 "incremental SimEngine, events/sec");
  flags.add_int("videos", 1500, "catalogue size M");
  flags.add_int("servers", 64, "cluster size N");
  flags.add_double("theta", 0.75, "Zipf skew");
  flags.add_double("target-util", 0.9, "offered load as a capacity fraction");
  flags.add_int("reps", 3, "timed replays per path");
  flags.add_int("seed", 2002, "trace seed");
  flags.add_bool("quick", false, "small fast configuration (CI smoke mode)");
  try {
    if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
    const bool quick = flags.get_bool("quick");
    const auto m =
        quick ? 150u : static_cast<std::size_t>(flags.get_int("videos"));
    const auto n =
        quick ? 12u : static_cast<std::size_t>(flags.get_int("servers"));
    const auto reps =
        quick ? 1u : static_cast<std::size_t>(flags.get_int("reps"));

    SimConfig config;
    config.num_servers = n;
    config.bandwidth_bps_per_server = units::gbps(1.8);
    config.stream_bitrate_bps = units::mbps(4);
    config.video_duration_sec = units::minutes(90);

    const std::vector<double> popularity =
        zipf_popularity(m, flags.get_double("theta"));
    const std::size_t budget = 2 * m;
    const std::size_t capacity = (budget + n - 1) / n + 2;
    const ReplicationPlan plan =
        make_replication_policy("zipf")->replicate(popularity, n, budget);
    const Layout layout = make_placement_policy("slf")->place(
        plan, popularity, n, capacity);

    // Offered load: enough concurrent streams to hold the cluster near the
    // target utilization, so admissions, rejections, and departures all
    // appear in the event mix.
    const double streams_per_server =
        config.bandwidth_bps_per_server / config.stream_bitrate_bps;
    const double target_concurrent = flags.get_double("target-util") *
                                     static_cast<double>(n) *
                                     streams_per_server;
    TraceSpec spec;
    spec.arrival_rate = target_concurrent / config.video_duration_sec;
    spec.horizon = (quick ? 1.5 : 2.5) * config.video_duration_sec;
    spec.popularity = popularity;
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    const RequestTrace trace = generate_trace(rng, spec);

    std::cout << "== simulation hot path: O(N) rescan vs incremental "
                 "engine ==\n"
              << "M=" << m << " videos, N=" << n << " servers, "
              << trace.size() << " requests, " << reps << " rep(s)\n\n";

    const RunStats seed_stats = time_replays(
        [&] { return seed_simulate(layout, config, trace); }, reps);
    // The engine is driven directly, exactly as replay_without_hooks drives
    // its hook-free build, so the overhead guard compares the same
    // construction and call sequence and prices only the hooks.
    const auto engine_replay = [&] {
      SimEngine engine(config);
      ReplicatedPolicy policy(layout, config);
      return engine.run(policy, trace);
    };
    const RunStats engine_stats = time_replays(engine_replay, reps);
    require_same(seed_stats.result, engine_stats.result);
    const double speedup =
        engine_stats.events_per_sec / seed_stats.events_per_sec;

    Table table({"path", "seconds", "events_per_sec", "rejection_rate"});
    table.set_precision(3);
    table.add_row({std::string("seed_rescan_loop"), seed_stats.seconds,
                   seed_stats.events_per_sec,
                   seed_stats.result.rejection_rate()});
    table.add_row({std::string("sim_engine"), engine_stats.seconds,
                   engine_stats.events_per_sec,
                   engine_stats.result.rejection_rate()});
    table.print(std::cout);
    std::cout << "\nspeedup: " << speedup << "x  (results verified equal)\n\n";

    // --- obs overhead guard: compiled-in-but-disabled must stay <3% ---
    // The baseline is the same engine and policy source built without
    // hooks; the library runs with obs compiled in, globally disabled, and
    // no timeline/event-log attached (the default), so the guard prices
    // exactly the dormant hooks.  Quick mode's replays finish in about a
    // millisecond, so the guard needs many repetitions before best-of-reps
    // converges; the full configuration amortizes scheduler noise over
    // ~30 ms replays instead.
    require(replay_without_hooks(layout, config, trace) ==
                engine_stats.result,
            "sim_hotpath: the hook-free build diverged from the library");
    const double min_total_sec = quick ? 1.0 : 2.0;
    const std::size_t max_reps = quick ? 4000 : 8;
    const auto events_per_sec = [&](double seconds) {
      return static_cast<double>(engine_stats.events / reps) /
             std::max(seconds, 1e-12);
    };
    obs::TraceRecorder::global().set_enabled(false);
    // Several measurement rounds, each side keeping its fastest rep over
    // all of them; stop as soon as the guard passes.  Quick mode's
    // sub-millisecond replays are the noisiest, so it gets twice the
    // rounds before the verdict counts.
    const int guard_rounds = quick ? 6 : 3;
    std::array<double, 2> hook_seconds = {1e300, 1e300};
    const auto guard_passes = [&] {
      return events_per_sec(hook_seconds[1]) >=
             0.97 * events_per_sec(hook_seconds[0]);
    };
    for (int round = 0; round < guard_rounds; ++round) {
      time_paired(
          [&] { keep_live(replay_without_hooks(layout, config, trace)); },
          [&] { keep_live(engine_replay()); }, min_total_sec, max_reps,
          hook_seconds);
      if (guard_passes()) break;
    }
    const double hookless_eps = events_per_sec(hook_seconds[0]);
    const double obs_off_eps = events_per_sec(hook_seconds[1]);
    const double off_overhead_pct = 100.0 * (1.0 - obs_off_eps / hookless_eps);
    const bool guard_pass = guard_passes();
    std::cout << "obs overhead on the engine event loop (best-of-reps):\n"
              << "  hooks compiled out:     " << hookless_eps << " events/s\n"
              << "  compiled in, disabled:  " << obs_off_eps << " events/s  ("
              << off_overhead_pct << " % overhead)\n"
              << "  guard (<3% disabled):   "
              << (guard_pass ? "PASS" : "FAIL") << "\n\n";

    // --- trace overhead guard: an enabled recorder must stay <10% ---------
    // With the TraceRecorder enabled, the whole replay records its sim.run
    // span; it must stay within 10% of the trace-disabled replay, or span
    // recording has crept into the per-request path.  Same best-of-rounds
    // discipline as the disabled-obs guard above.
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.clear();  // disabled since the guard above
    std::array<double, 2> trace_seconds = {1e300, 1e300};
    const auto trace_guard_passes = [&] {
      return events_per_sec(trace_seconds[1]) >=
             0.90 * events_per_sec(trace_seconds[0]);
    };
    for (int round = 0; round < guard_rounds; ++round) {
      time_paired(
          [&] { keep_live(engine_replay()); },
          [&] {
            recorder.set_enabled(true);
            keep_live(engine_replay());
            recorder.set_enabled(false);
          },
          min_total_sec, max_reps, trace_seconds);
      if (trace_guard_passes()) break;
    }
    const double trace_off_eps = events_per_sec(trace_seconds[0]);
    const double trace_on_eps = events_per_sec(trace_seconds[1]);
    const std::uint64_t trace_events_recorded = recorder.events_recorded();
    recorder.clear();
    const double trace_overhead_pct =
        100.0 * (1.0 - trace_on_eps / trace_off_eps);
    const bool trace_guard_pass = trace_guard_passes();
    std::cout << "trace overhead on the whole replay (best-of-reps):\n"
              << "  trace disabled:         " << trace_off_eps
              << " events/s\n"
              << "  trace enabled:          " << trace_on_eps << " events/s  ("
              << trace_overhead_pct << " % overhead, "
              << trace_events_recorded << " events recorded)\n"
              << "  guard (<10% enabled):   "
              << (trace_guard_pass ? "PASS" : "FAIL") << "\n\n";

    std::cout << "{\"bench\":\"sim_hotpath\",\"videos\":" << m
              << ",\"servers\":" << n << ",\"requests\":" << trace.size()
              << ",\"events\":" << engine_stats.events / reps
              << ",\"seed_seconds\":" << seed_stats.seconds
              << ",\"seed_events_per_sec\":" << seed_stats.events_per_sec
              << ",\"engine_seconds\":" << engine_stats.seconds
              << ",\"engine_events_per_sec\":" << engine_stats.events_per_sec
              << ",\"speedup\":" << speedup
              << ",\"rejection_rate\":" << engine_stats.result.rejection_rate()
              << ",\"hookless_events_per_sec\":" << hookless_eps
              << ",\"obs_off_events_per_sec\":" << obs_off_eps
              << ",\"obs_off_overhead_pct\":" << off_overhead_pct
              << ",\"obs_guard_pass\":" << (guard_pass ? "true" : "false")
              << ",\"trace_off_events_per_sec\":" << trace_off_eps
              << ",\"trace_on_events_per_sec\":" << trace_on_eps
              << ",\"trace_overhead_pct\":" << trace_overhead_pct
              << ",\"trace_guard_pass\":"
              << (trace_guard_pass ? "true" : "false") << "}\n";
    if (!guard_pass) {
      std::cerr << "error: obs layer costs " << off_overhead_pct
                << " % events/sec while disabled (budget: 3 %)\n";
      return EXIT_FAILURE;
    }
    if (!trace_guard_pass) {
      std::cerr << "error: enabled trace costs " << trace_overhead_pct
                << " % events/sec on the whole replay (budget: 10 %)\n";
      return EXIT_FAILURE;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
