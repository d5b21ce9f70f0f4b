#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/replicated_policy.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

RoutedPlan plan_routed_replay(const Layout& layout, std::size_t num_servers,
                              const RequestTrace& trace,
                              std::size_t num_shards) {
  require(num_shards >= 1 && num_servers >= 1,
          "routed plan: need at least one shard and one server");
  require(trace.size() <= std::numeric_limits<std::uint32_t>::max(),
          "routed plan: more requests than 32-bit request indices address");
  const std::size_t shards = std::min(num_shards, num_servers);
  RoutedPlan plan;
  plan.requests.resize(shards);
  plan.picks.resize(shards);
  std::vector<std::size_t> rr(layout.num_videos(), 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t video = trace.requests[i].video;
    require(video < layout.num_videos(),
            "routed plan: request video out of range");
    const auto holders = layout.hosts(video);
    require(!holders.empty(), "routed plan: video has no replica");
    const std::size_t pick = rr[video]++ % holders.size();
    const std::size_t shard = holders[pick] % shards;
    plan.requests[shard].push_back(static_cast<std::uint32_t>(i));
    plan.picks[shard].push_back(static_cast<std::uint32_t>(pick));
  }
  return plan;
}

void merge_load_segments(const std::vector<std::vector<LoadSegment>>& logs,
                         double epoch_start, std::size_t num_servers,
                         LoadIntegrals& into) {
  const auto n = static_cast<double>(num_servers);
  std::vector<std::size_t> cursor(logs.size(), 0);
  double t = epoch_start;
  for (;;) {
    // The next global breakpoint is the earliest un-consumed segment end.
    // Every shard's stream covers (epoch_start, epoch_end] contiguously and
    // ends exactly at the epoch boundary (advance_to at the barrier), so a
    // stream only runs dry once t has reached the boundary.
    double next = std::numeric_limits<double>::infinity();
    bool any = false;
    for (std::size_t s = 0; s < logs.size(); ++s) {
      if (cursor[s] < logs[s].size()) {
        next = std::min(next, logs[s][cursor[s]].end_time);
        any = true;
      }
    }
    if (!any) break;
    // Each shard's current segment holds its (post idle-flush) accumulator
    // state over [t, next); the global integrand over that span is the sum
    // of the per-shard sums and the max of the per-shard maxes.
    double sum = 0.0;
    double sumsq = 0.0;
    double max = 0.0;
    for (std::size_t s = 0; s < logs.size(); ++s) {
      if (cursor[s] < logs[s].size()) {
        const LoadSegment& seg = logs[s][cursor[s]];
        sum += seg.utilization_sum;
        sumsq += seg.utilization_sumsq;
        max = std::max(max, seg.max_utilization);
      }
    }
    into.add_span(sum, sumsq, max, n, next - t);
    for (std::size_t s = 0; s < logs.size(); ++s) {
      while (cursor[s] < logs[s].size() &&
             logs[s][cursor[s]].end_time <= next) {
        ++cursor[s];
      }
    }
    t = next;
  }
}

namespace {

bool fresh(const obs::TimeseriesCollector* timeline) {
  return timeline == nullptr ||
         (timeline->size() == 0 && timeline->downsample_factor() == 1 &&
          timeline->time_offset() == 0.0);
}

bool fresh(const obs::EventLog* event_log) {
  return event_log == nullptr ||
         (event_log->seen() == 0 && event_log->time_offset() == 0.0);
}

/// The policy to route when the one shard rule (sharded_engine.h) holds;
/// nullptr when the replay runs whole.
const ReplicatedPolicy* routable(const StoragePolicy& policy,
                                 const SimOptions& options) {
  const auto* replicated = dynamic_cast<const ReplicatedPolicy*>(&policy);
  const bool routed = replicated != nullptr && options.num_shards > 1 &&
                      policy.config().num_servers > 1 &&
                      policy.config().redirect == RedirectMode::kNone &&
                      policy.cache_stats() == nullptr &&
                      fresh(options.timeline) && fresh(options.event_log);
  return routed ? replicated : nullptr;
}

/// Merges the per-shard event logs into the caller's fresh log in global
/// request order: request i belongs to the shard whose next listed request
/// is i.  A shard log keeps the first `capacity` records of its own
/// requests, so while the caller's log has room, the record it is offered
/// has fewer than `capacity` global — hence shard-local — predecessors and
/// its shard kept it.  Once the caller's log is full every later record is
/// dropped whatever it holds, so placeholders keep the seen/dropped tallies
/// exact without looking for owners.
void merge_event_logs(const RoutedPlan& plan, std::size_t num_requests,
                      const std::vector<std::unique_ptr<obs::EventLog>>& logs,
                      obs::EventLog& into) {
  std::vector<std::size_t> cursor(plan.num_shards(), 0);
  std::size_t i = 0;
  for (; i < num_requests && into.records().size() < into.capacity(); ++i) {
    std::size_t s = 0;
    while (cursor[s] == plan.requests[s].size() ||
           plan.requests[s][cursor[s]] != i) {
      ++s;
    }
    const std::size_t k = cursor[s]++;
    const std::vector<obs::RequestRecord>& records = logs[s]->records();
    into.record(k < records.size() ? records[k] : obs::RequestRecord{});
  }
  for (; i < num_requests; ++i) into.record(obs::RequestRecord{});
}

/// Plans the routed replay of `policy`, replays the shards and merges them.
SimResult run_routed(const ReplicatedPolicy& policy, const RequestTrace& trace,
                     const SimOptions& options) {
  const SimConfig& config = policy.config();
  obs::TimeseriesCollector* const timeline = options.timeline;
  obs::EventLog* const event_log = options.event_log;
  RoutedPlan plan;
  {
    // The well-formedness check is an O(n) trace scan: it stays inside a
    // phase, or it would leak out of the phase forest's >= 95% coverage.
    VODREP_TRACE_SCOPE("plan");
    require(trace.is_well_formed(), "simulate: malformed trace");
    plan = plan_routed_replay(policy.layout(), config.num_servers, trace,
                              options.num_shards);
  }
  const std::size_t num_shards = plan.num_shards();

  // Per-shard replay state.  Every engine gets the full config (all servers,
  // the full failure schedule): foreign servers never see traffic, so their
  // contributions stay exactly zero, while the globally correct failed()
  // flags keep rejection attribution exact.
  std::vector<std::unique_ptr<ReplicatedPolicy>> policies;
  std::vector<std::unique_ptr<SimEngine>> engines;
  std::vector<std::unique_ptr<obs::TimeseriesCollector>> shard_timelines;
  std::vector<std::unique_ptr<obs::EventLog>> shard_logs;
  std::vector<std::vector<LoadSegment>> segment_logs(num_shards);
  policies.reserve(num_shards);
  engines.reserve(num_shards);
  {
    VODREP_TRACE_SCOPE("setup");
    for (std::size_t s = 0; s < num_shards; ++s) {
      policies.push_back(
          std::make_unique<ReplicatedPolicy>(policy.layout(), config));
      policies[s]->set_routed_picks(std::move(plan.picks[s]));
      engines.push_back(std::make_unique<SimEngine>(config));
      engines[s]->attach_segment_log(&segment_logs[s]);
      if (timeline != nullptr) {
        // Cloned from the caller's collector, so a collector sized for the
        // wrong server count fails attach_timeline here as it does whole.
        shard_timelines.push_back(std::make_unique<obs::TimeseriesCollector>(
            obs::TimeseriesConfig{timeline->interval_sec()},
            timeline->num_servers()));
        engines[s]->attach_timeline(shard_timelines[s].get());
      }
      if (event_log != nullptr) {
        shard_logs.push_back(
            std::make_unique<obs::EventLog>(event_log->capacity()));
        engines[s]->attach_event_log(shard_logs[s].get());
      }
      engines[s]->begin_stepping(*policies[s]);
    }
  }

  // Merge-epoch boundaries: the fixed simulated-time barriers horizon·k/8
  // at which every shard has advanced to the same clock, the segment logs
  // are swept into the global Eq. 2/3 integrals, and the logs are cleared
  // (the only reason the barriers exist: they bound segment-log memory).
  std::vector<double> boundaries;
  for (int k = 1; k < 8; ++k) {
    const double t = trace.horizon * k / 8.0;
    if (t > 0.0) boundaries.push_back(t);
  }
  boundaries.push_back(trace.horizon);

  LoadIntegrals merged;
  std::vector<std::size_t> next_request(num_shards, 0);
  const bool inline_shards =
      options.pool == nullptr || options.pool->size() <= 1;
  // Per-shard thread-CPU attribution (sim.shard.<s>.cpu_ns): each shard's
  // replay work accrues CPU on whichever pool worker ran it; the deltas are
  // accumulated per shard (one task per shard at a time, so the per-element
  // writes never race).  Measured only when someone is looking.
  const bool account_cpu =
      obs::metrics_enabled() || obs::TraceRecorder::global().enabled();
  std::vector<std::uint64_t> shard_cpu_ns(num_shards, 0);
  double epoch_start = 0.0;
  std::vector<std::size_t> epoch_end(num_shards, 0);
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    const double limit = boundaries[b];
    const bool final_epoch = b + 1 == boundaries.size();
    const auto advance_shard = [&](std::size_t s) {
      const std::uint64_t cpu_start =
          account_cpu ? obs::thread_cpu_now_ns() : 0;
      SimEngine& engine = *engines[s];
      ReplicatedPolicy& shard_policy = *policies[s];
      const std::vector<std::uint32_t>& indices = plan.requests[s];
      const std::size_t sized = segment_logs[s].capacity();
      for (std::size_t& cur = next_request[s]; cur < epoch_end[s]; ++cur) {
        engine.step(shard_policy, trace.requests[indices[cur]]);
      }
      engine.advance_to(shard_policy, limit);
      VODREP_DCHECK_EQ(segment_logs[s].capacity(), sized,
                       "routed replay: a shard outgrew its segment-log bound");
      if (account_cpu) {
        shard_cpu_ns[s] += obs::thread_cpu_now_ns() - cpu_start;
      }
    };
    {
      // Wall time here covers sizing the segment logs, the pool dispatch and
      // the barrier wait; the per-shard cpu_ns gauges say how much of it was
      // shard work.
      VODREP_TRACE_SCOPE("shard_run");
      // The calling thread sizes each shard's segment log for the epoch, so
      // no shard grows one on a pool thread: freed memory stays in the
      // malloc arena of the thread that allocated it, and which thread runs
      // which shard varies, so logs grown there made peak RSS vary from run
      // to run.  Each advancing integration step appends one segment: one
      // per arrival, per departure (at most the pending ones plus one per
      // arrival), per failure, and the barrier's.  The bound is rounded up
      // to a power of two so that later epochs, and replays of similar
      // traces, ask for the same size again.
      const auto due = [&](std::uint32_t i) {
        return trace.requests[i].arrival_time < limit;
      };
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::vector<std::uint32_t>& indices = plan.requests[s];
        const auto first =
            indices.begin() + static_cast<std::ptrdiff_t>(next_request[s]);
        epoch_end[s] =
            final_epoch
                ? indices.size()
                : static_cast<std::size_t>(
                      std::partition_point(first, indices.end(), due) -
                      indices.begin());
        const std::size_t arrivals = epoch_end[s] - next_request[s];
        segment_logs[s].reserve(
            std::bit_ceil(2 * arrivals + engines[s]->pending_departures() +
                          config.failures.size() + 1));
      }
      if (inline_shards) {
        for (std::size_t s = 0; s < num_shards; ++s) advance_shard(s);
      } else {
        options.pool->parallel_for(num_shards, advance_shard);
      }
    }
    {
      VODREP_TRACE_SCOPE("epoch_merge");
      merge_load_segments(segment_logs, epoch_start, config.num_servers,
                          merged);
      for (std::vector<LoadSegment>& log : segment_logs) log.clear();
    }
    epoch_start = limit;
  }

  // Close every shard and fold the linear tallies.  kNone never redirects
  // and a routed policy has no tier, so the redirect and cache counters
  // stay zero, as in the whole replay.
  SimResult out;
  {
    VODREP_TRACE_SCOPE("finish");
    std::vector<SimResult> results;
    results.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      results.push_back(engines[s]->finish_stepping(*policies[s],
                                                    trace.horizon));
    }
    out.total_requests = trace.size();
    out.served_per_server.resize(config.num_servers);
    out.utilization_per_server.assign(config.num_servers, 0.0);
    // `disrupted` sums too: every shard applies the full failure schedule
    // and a foreign crash tears down zero streams, so the sum counts each
    // disruption exactly once.
    for (const SimResult& r : results) {
      out.rejected += r.rejected;
      for (std::size_t i = 0; i < obs::kNumRejectReasons; ++i) {
        out.rejected_by_reason[i] += r.rejected_by_reason[i];
      }
      out.batched += r.batched;
      out.disrupted += r.disrupted;
    }
    for (std::size_t s = 0; s < config.num_servers; ++s) {
      const SimResult& owner = results[s % num_shards];
      out.served_per_server[s] = owner.served_per_server[s];
      out.utilization_per_server[s] = owner.utilization_per_server[s];
    }
    out.mean_imbalance_eq2 = merged.imbalance_eq2.mean();
    out.mean_imbalance_cv = merged.imbalance_cv.mean();
    out.mean_imbalance_capacity = merged.imbalance_capacity.mean();
    out.peak_imbalance_eq2 = merged.peak_eq2;

    if (timeline != nullptr) {
      std::vector<const obs::TimeseriesCollector*> views;
      views.reserve(num_shards);
      for (const auto& t : shard_timelines) views.push_back(t.get());
      timeline->merge_shards(views);
    }
    if (event_log != nullptr) {
      merge_event_logs(plan, trace.size(), shard_logs, *event_log);
    }

    if (obs::metrics_enabled()) {
      // Every shard applies the full injected schedule, so the failures are
      // reported once.  The heap high water is the sum of the per-shard
      // peaks: an upper bound on the global peak of in-flight departures
      // (the shards' peaks need not coincide in time).
      SimEngine::EventStats events;
      events.failures_applied = engines[0]->event_stats().failures_applied;
      obs::MetricsRegistry& registry = obs::metrics();
      for (std::size_t s = 0; s < num_shards; ++s) {
        const SimEngine::EventStats stats = engines[s]->event_stats();
        events.departures_fired += stats.departures_fired;
        events.departures_cancelled += stats.departures_cancelled;
        events.heap_high_water += stats.heap_high_water;
        const std::string lane = "sim.shard." + std::to_string(s) + ".";
        registry.gauge(lane + "requests")
            .set(static_cast<double>(results[s].total_requests));
        registry.gauge(lane + "rejected")
            .set(static_cast<double>(results[s].rejected));
        registry.gauge(lane + "departures")
            .set(static_cast<double>(stats.departures_fired));
        registry.gauge(lane + "heap_high_water")
            .set(static_cast<double>(stats.heap_high_water));
        registry.gauge(lane + "cpu_ns")
            .set(static_cast<double>(shard_cpu_ns[s]));
      }
      SimEngine::export_metrics(out, events, /*has_cache_tier=*/false);
    }
  }
  {
    // Freed inside a phase: their implicit destruction at return would land
    // between the children of the caller's root phase.
    VODREP_TRACE_SCOPE("teardown");
    engines.clear();
    policies.clear();
    shard_timelines.clear();
    shard_logs.clear();
    segment_logs.clear();
    plan = RoutedPlan{};
  }
  return out;
}

}  // namespace

SimResult simulate(StoragePolicy& policy, const RequestTrace& trace,
                   const SimOptions& options) {
  require(options.num_shards >= 1, "simulate: need >= 1 shard");
  if (const ReplicatedPolicy* routed = routable(policy, options)) {
    VODREP_TRACE_SCOPE("sim.sharded");
    return run_routed(*routed, trace, options);
  }
  SimEngine engine(policy.config());
  engine.attach_timeline(options.timeline);
  engine.attach_event_log(options.event_log);
  return engine.run(policy, trace);
}

SimResult simulate_sharded(const Layout& layout, const SimConfig& config,
                           const RequestTrace& trace, const SimOptions& options,
                           obs::TimeseriesCollector* timeline,
                           obs::EventLog* event_log) {
  return simulate(ReplicatedPolicy(layout, config), trace,
                  {options.num_shards, options.pool, timeline, event_log});
}

SimResult simulate_sharded_prefix_cache(const Layout& layout,
                                        const SimConfig& config,
                                        const PrefixCacheOptions& cache_options,
                                        const RequestTrace& trace,
                                        const SimOptions& options,
                                        obs::TimeseriesCollector* timeline,
                                        obs::EventLog* event_log) {
  return simulate(ReplicatedPolicy(layout, config, cache_options), trace,
                  {options.num_shards, options.pool, timeline, event_log});
}

}  // namespace vodrep
