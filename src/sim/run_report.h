// Run-report assembly: turns live simulation state (SimConfig, SimResult,
// an optional TimeseriesCollector and EventLog) into the versioned
// self-describing JSON document defined by src/obs/report.h.
//
// The numbers in `final` come straight from the SimResult structs through
// json_lite's value-exact serialization, so a report round-trips the
// end-of-run Eq. 2 imbalance bit-for-bit — downstream validators can
// compare at 1e-9 (or exactly) without recomputing.
#pragma once

#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/json_lite.h"
#include "src/obs/timeseries.h"
#include "src/sim/engine.h"

namespace vodrep {

/// Element-wise aggregate of several SimResults (e.g. the epoch replays of
/// an online-adaptation run): counters and per-server served counts sum,
/// time-weighted means average with equal weight (equal-duration epochs),
/// peaks take the max, and the per-reason rejection counts keep summing
/// exactly to `rejected`.  `results` must be non-empty and agree on the
/// server count.
[[nodiscard]] SimResult aggregate_results(const std::vector<SimResult>& results);

/// Builds a run report at obs::kRunReportSchemaVersion
/// (obs::validate_run_report passes on the output by construction).
/// `timeline` and `events` may be null — the corresponding sections then
/// carry zero samples / records.  `config_extra` must be a JSON object; its
/// members are merged into the `config` echo on top of the SimConfig fields
/// (callers add trace/driver parameters there).
/// `profile` is the optional obs::profile_json() export; pass null (the
/// default) to omit the section.
[[nodiscard]] obs::JsonValue build_run_report(
    const SimConfig& config, const SimResult& result,
    const obs::TimeseriesCollector* timeline, const obs::EventLog* events,
    obs::JsonValue config_extra = obs::JsonValue::object(),
    obs::JsonValue profile = obs::JsonValue::null());

}  // namespace vodrep
