#include "src/sim/engine.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

VODREP_OBS_HOOKS_NS_BEGIN

SimEngine::SimEngine(const SimConfig& config) : config_(config) {
  config_.validate();
  const std::size_t n = config_.num_servers;
  servers_.reserve(n);
  capacities_bps_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    capacities_bps_[s] = config_.bandwidth_of(s);
    servers_.emplace_back(capacities_bps_[s]);
  }
  utilization_.assign(n, 0.0);
  busy_integral_.assign(n, 0.0);
  busy_since_.assign(n, 0.0);
}

SimResult SimEngine::run(StoragePolicy& policy, const RequestTrace& trace) {
  require(trace.is_well_formed(), "SimEngine::run: malformed trace");
  VODREP_TRACE_SCOPE("sim.run");
  require(!ran_, "SimEngine: one engine instance replays one trace");
  ran_ = true;
  policy.bind(*this);
  cache_stats_ = policy.cache_stats();
  result_.total_requests = trace.size();
  for (const Request& request : trace.requests) {
    advance_events(policy, request.arrival_time);
    const PolicyDecision decision = policy.dispatch(request);
    ++requests_dispatched_;
    if (!decision.admitted) {
      ++result_.rejected;
      // Attribution is part of the result, not optional observability: the
      // per-reason entries always sum exactly to `rejected`.
      VODREP_DCHECK(decision.reject_reason != obs::RejectReason::kNone,
                    "StoragePolicy rejected a request without a reason");
      ++result_.rejected_by_reason[static_cast<std::size_t>(
          decision.reject_reason)];
    } else if (decision.batched) {
      ++result_.batched;
    } else {
      if (decision.redirected) ++result_.redirected;
      if (decision.via_backbone) ++result_.proxied;
    }
    if (obs::kHooks && event_log_ != nullptr) log_request(request, decision);
  }
  // Close the books at the end of the peak period; streams outliving it keep
  // their bandwidth (they are not torn down) but the metrics window ends.
  advance_events(policy, trace.horizon);
  return finalize(trace.horizon);
}

void SimEngine::attach_timeline(obs::TimeseriesCollector* timeline) {
  require(timeline == nullptr || timeline->num_servers() == servers_.size(),
          "SimEngine: timeline collector sized for a different server count");
  timeline_ = timeline;
}

void SimEngine::log_request(const Request& request,
                            const PolicyDecision& decision) {
  obs::RequestRecord record;
  record.arrival_time = request.arrival_time;
  record.video = static_cast<std::uint32_t>(request.video);
  record.server = decision.server;
  if (!decision.admitted) {
    record.outcome = obs::RequestOutcome::kRejected;
    record.reason = decision.reject_reason;
  } else if (decision.batched) {
    record.outcome = obs::RequestOutcome::kBatched;
  } else if (decision.via_backbone) {
    record.outcome = obs::RequestOutcome::kProxied;
  } else if (decision.redirected) {
    record.outcome = obs::RequestOutcome::kRedirected;
  } else {
    record.outcome = obs::RequestOutcome::kServed;
  }
  event_log_->record(record);
}

SimResult SimEngine::finalize(double horizon) {
  result_.mean_imbalance_eq2 = load_.imbalance_eq2.mean();
  result_.mean_imbalance_cv = load_.imbalance_cv.mean();
  result_.mean_imbalance_capacity = load_.imbalance_capacity.mean();
  result_.peak_imbalance_eq2 = load_.peak_eq2;
  const std::size_t n = servers_.size();
  result_.served_per_server.resize(n);
  result_.utilization_per_server.assign(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    result_.served_per_server[s] = servers_[s].served_total();
    if (horizon > 0.0) {
      // Flush the per-server busy integral to the end of the window.
      const double integral =
          busy_integral_[s] +
          servers_[s].busy_bps() * (horizon - busy_since_[s]);
      result_.utilization_per_server[s] =
          integral / (horizon * capacities_bps_[s]);
    }
  }
  if (cache_stats_ != nullptr) {
    result_.cache_hits = cache_stats_->hits;
    result_.cache_misses = cache_stats_->misses;
    result_.cache_evictions = cache_stats_->evictions;
  }
  return result_;
}

void SimEngine::admit(std::size_t s, double bitrate_bps) {
  pre_load_change(s);
  servers_[s].admit(bitrate_bps);
  post_load_change(s);
}

void SimEngine::release(std::size_t s, double bitrate_bps) {
  pre_load_change(s);
  servers_[s].release(bitrate_bps);
  post_load_change(s);
}

std::size_t SimEngine::fail(std::size_t s) {
  pre_load_change(s);
  const std::size_t dropped = servers_[s].fail();
  post_load_change(s);
  return dropped;
}

EventHeap::Id SimEngine::schedule_departure(double time, std::size_t stream) {
  return departures_.push(time, stream);
}

void SimEngine::cancel_departure(EventHeap::Id id) { departures_.cancel(id); }

void SimEngine::advance_events(StoragePolicy& policy, double now) {
  const auto& failures = config_.failures;
  for (;;) {
    const bool have_departure =
        !departures_.empty() && departures_.min_time() <= now;
    const bool have_failure = next_failure_ < failures.size() &&
                              failures[next_failure_].time <= now;
    if (have_failure &&
        (!have_departure ||
         failures[next_failure_].time <= departures_.min_time())) {
      const ServerFailure& failure = failures[next_failure_++];
      integrate_to(failure.time);
      result_.disrupted += policy.on_crash(failure.server);
      continue;
    }
    if (!have_departure) break;
    const EventHeap::Event event = departures_.pop_min();
    integrate_to(event.time);
    policy.on_departure(event.payload);
  }
  integrate_to(now);
}

void SimEngine::integrate_to(double t) {
  const double dt = t - now_;
  if (dt <= 0.0) return;
  if (obs::kHooks && timeline_ != nullptr) {
    integrate_observed_to(t, dt);
    return;
  }
  load_.add_span(utilization_sum_, utilization_sumsq_,
                 current_max_utilization(),
                 static_cast<double>(servers_.size()), dt);
  now_ = t;
}

void SimEngine::integrate_observed_to(double t, double dt) {
  // Samples due in [now_, t] read the state that holds over that span, so
  // they must fire before the accumulators advance.  Deferring the check
  // past the dt<=0 early return keeps the guard-priced fast path free of
  // the timeline test and loses no samples: a zero-dt call leaves now_
  // unchanged, so a due sample simply fires on the next advancing call,
  // reading the state that actually holds over the sampled interval.
  sample_timeline_to(t);
  load_.add_span(utilization_sum_, utilization_sumsq_,
                 current_max_utilization(),
                 static_cast<double>(servers_.size()), dt);
  now_ = t;
}

void SimEngine::sample_timeline_to(double t) {
  // The utilization state is constant over [now_, t], so every sample due
  // in that span reads the live incremental accumulators directly (an idle
  // cluster reads mean 0, as integrate_to's flush makes it) without
  // mutating the running sums.
  while (timeline_->next_due() <= t) {
    const double max = current_max_utilization();
    const double mean =
        max > 0.0 ? utilization_sum_ / static_cast<double>(servers_.size())
                  : 0.0;
    const std::uint64_t cache_hits =
        cache_stats_ != nullptr ? cache_stats_->hits : 0;
    const std::uint64_t cache_misses =
        cache_stats_ != nullptr ? cache_stats_->misses : 0;
    timeline_->record(obs::imbalance_eq2(max, mean), mean, max,
                      requests_dispatched_, result_.rejected, utilization_,
                      cache_hits, cache_misses);
  }
}

void SimEngine::pre_load_change(std::size_t s) {
  busy_integral_[s] += servers_[s].busy_bps() * (now_ - busy_since_[s]);
  busy_since_[s] = now_;
}

void SimEngine::post_load_change(std::size_t s) {
  const double updated = servers_[s].busy_bps() / capacities_bps_[s];
  const double previous = utilization_[s];
  utilization_[s] = updated;
  utilization_sum_ += updated - previous;
  utilization_sumsq_ += updated * updated - previous * previous;
  // Lazy max (the IncrementalState trick): track the argmax eagerly while
  // loads grow; only a drop of the current max server's load forces an
  // O(N) re-scan, deferred to the next query.
  if (s == max_server_) {
    if (updated < previous) max_dirty_ = true;
  } else if (!max_dirty_ && updated > utilization_[max_server_]) {
    max_server_ = s;
  }
}

double SimEngine::current_max_utilization() const {
  if (max_dirty_) {
    max_server_ = static_cast<std::size_t>(
        std::max_element(utilization_.begin(), utilization_.end()) -
        utilization_.begin());
    max_dirty_ = false;
  }
  return utilization_[max_server_];
}

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
