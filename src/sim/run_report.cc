#include "src/sim/run_report.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/obs/report.h"
#include "src/util/error.h"

namespace vodrep {

namespace {

const char* redirect_mode_name(RedirectMode mode) {
  switch (mode) {
    case RedirectMode::kNone: return "none";
    case RedirectMode::kOtherHolders: return "other_holders";
    case RedirectMode::kBackboneProxy: return "backbone_proxy";
  }
  return "unknown";
}

const char* batching_mode_name(BatchingMode mode) {
  switch (mode) {
    case BatchingMode::kPiggyback: return "piggyback";
    case BatchingMode::kPatching: return "patching";
  }
  return "unknown";
}

obs::JsonValue config_json(const SimConfig& config,
                           const obs::JsonValue& extra) {
  using obs::JsonValue;
  JsonValue out = JsonValue::object();
  out.set("num_servers", JsonValue::integer_u64(config.num_servers));
  out.set("bandwidth_bps_per_server",
          JsonValue::number(config.bandwidth_bps_per_server));
  out.set("stream_bitrate_bps", JsonValue::number(config.stream_bitrate_bps));
  out.set("video_duration_sec", JsonValue::number(config.video_duration_sec));
  out.set("redirect", JsonValue::string(redirect_mode_name(config.redirect)));
  out.set("backbone_bps", JsonValue::number(config.backbone_bps));
  out.set("batching_window_sec",
          JsonValue::number(config.batching_window_sec));
  out.set("batching_mode",
          JsonValue::string(batching_mode_name(config.batching_mode)));
  out.set("num_failures", JsonValue::integer_u64(config.failures.size()));
  require(extra.is_object(), "build_run_report: config_extra must be an object");
  for (const auto& [key, value] : extra.members()) out.set(key, value);
  return out;
}

obs::JsonValue final_json(const SimResult& result) {
  using obs::JsonValue;
  JsonValue out = JsonValue::object();
  out.set("total_requests", JsonValue::integer_u64(result.total_requests));
  out.set("rejected", JsonValue::integer_u64(result.rejected));
  out.set("rejection_rate", JsonValue::number(result.rejection_rate()));
  out.set("redirected", JsonValue::integer_u64(result.redirected));
  out.set("proxied", JsonValue::integer_u64(result.proxied));
  out.set("batched", JsonValue::integer_u64(result.batched));
  out.set("disrupted", JsonValue::integer_u64(result.disrupted));
  out.set("mean_imbalance_eq2", JsonValue::number(result.mean_imbalance_eq2));
  out.set("mean_imbalance_cv", JsonValue::number(result.mean_imbalance_cv));
  out.set("mean_imbalance_capacity",
          JsonValue::number(result.mean_imbalance_capacity));
  out.set("peak_imbalance_eq2", JsonValue::number(result.peak_imbalance_eq2));
  out.set("mean_utilization", JsonValue::number(result.mean_utilization()));
  // Cache-tier counters are always present (all zero for cache-less
  // policies) so required-key consumers need no conditional schema.
  out.set("cache_hits", JsonValue::integer_u64(result.cache_hits));
  out.set("cache_misses", JsonValue::integer_u64(result.cache_misses));
  out.set("cache_evictions", JsonValue::integer_u64(result.cache_evictions));
  out.set("cache_hit_ratio", JsonValue::number(result.cache_hit_ratio()));
  JsonValue util = JsonValue::array();
  for (double u : result.utilization_per_server) {
    util.push_back(JsonValue::number(u));
  }
  out.set("utilization_per_server", std::move(util));
  JsonValue served = JsonValue::array();
  for (std::size_t count : result.served_per_server) {
    served.push_back(JsonValue::integer_u64(count));
  }
  out.set("served_per_server", std::move(served));
  return out;
}

obs::JsonValue rejections_json(const SimResult& result) {
  using obs::JsonValue;
  JsonValue by_reason = JsonValue::object();
  for (std::size_t r = 0; r < obs::kNumRejectReasons; ++r) {
    by_reason.set(
        std::string(obs::reject_reason_name(static_cast<obs::RejectReason>(r))),
        JsonValue::integer_u64(result.rejected_by_reason[r]));
  }
  JsonValue out = JsonValue::object();
  out.set("total", JsonValue::integer_u64(result.rejected));
  out.set("by_reason", std::move(by_reason));
  return out;
}

/// Empty columnar timeline with the right shape for a report without a
/// collector (every array present, zero samples).
obs::JsonValue empty_timeline_json() {
  using obs::JsonValue;
  JsonValue out = JsonValue::object();
  out.set("interval_sec", JsonValue::number(0.0));
  out.set("downsample_factor", JsonValue::integer_u64(1));
  out.set("num_samples", JsonValue::integer_u64(0));
  for (const char* key : {"time", "imbalance_eq2", "mean_utilization",
                          "max_utilization", "requests", "rejected",
                          "cache_hits", "cache_misses",
                          "utilization_per_server"}) {
    out.set(key, JsonValue::array());
  }
  return out;
}

}  // namespace

SimResult aggregate_results(const std::vector<SimResult>& results) {
  require(!results.empty(), "aggregate_results: no results");
  SimResult total = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    const SimResult& r = results[i];
    require(r.utilization_per_server.size() ==
                    total.utilization_per_server.size() &&
                r.served_per_server.size() == total.served_per_server.size(),
            "aggregate_results: server count mismatch");
    total.total_requests += r.total_requests;
    total.rejected += r.rejected;
    for (std::size_t reason = 0; reason < obs::kNumRejectReasons; ++reason) {
      total.rejected_by_reason[reason] += r.rejected_by_reason[reason];
    }
    total.redirected += r.redirected;
    total.proxied += r.proxied;
    total.batched += r.batched;
    total.disrupted += r.disrupted;
    total.cache_hits += r.cache_hits;
    total.cache_misses += r.cache_misses;
    total.cache_evictions += r.cache_evictions;
    total.mean_imbalance_eq2 += r.mean_imbalance_eq2;
    total.mean_imbalance_cv += r.mean_imbalance_cv;
    total.mean_imbalance_capacity += r.mean_imbalance_capacity;
    total.peak_imbalance_eq2 =
        std::max(total.peak_imbalance_eq2, r.peak_imbalance_eq2);
    for (std::size_t s = 0; s < total.served_per_server.size(); ++s) {
      total.served_per_server[s] += r.served_per_server[s];
    }
    for (std::size_t s = 0; s < total.utilization_per_server.size(); ++s) {
      total.utilization_per_server[s] += r.utilization_per_server[s];
    }
  }
  // Equal-duration epochs: time-weighted means average with equal weight.
  const auto n = static_cast<double>(results.size());
  total.mean_imbalance_eq2 /= n;
  total.mean_imbalance_cv /= n;
  total.mean_imbalance_capacity /= n;
  for (double& u : total.utilization_per_server) u /= n;
  return total;
}

obs::JsonValue build_run_report(const SimConfig& config,
                                const SimResult& result,
                                const obs::TimeseriesCollector* timeline,
                                const obs::EventLog* events,
                                obs::JsonValue config_extra,
                                obs::JsonValue profile) {
  using obs::JsonValue;
  JsonValue report = JsonValue::object();
  report.set("schema_version",
             JsonValue::integer(obs::kRunReportSchemaVersion));
  report.set("kind", JsonValue::string(obs::kRunReportKind));
  report.set("generated_by", JsonValue::string("vodrep"));
  report.set("config", config_json(config, config_extra));
  report.set("final", final_json(result));
  report.set("rejections", rejections_json(result));
  report.set("timeline",
             timeline != nullptr ? timeline->to_json() : empty_timeline_json());
  report.set("annotations", timeline != nullptr ? timeline->annotations_json()
                                                : JsonValue::array());
  report.set("events", obs::EventLog::to_json(events));
  require(profile.is_null() || profile.is_object(),
          "build_run_report: profile must be null or an object");
  if (profile.is_object()) report.set("profile", std::move(profile));
  return report;
}

}  // namespace vodrep
