// The self-describing run-report schema (DESIGN.md §7b).
//
// A run report is one JSON document capturing everything needed to explain
// a simulation run after the fact: the configuration that produced it, the
// end-of-run metrics, the L(t) / l_j(t) / rejection time series, the
// per-reason rejection breakdown, controller replan annotations, and the
// bounded per-request event log.  The schema is versioned
// (`schema_version`) so downstream tooling (vodrep_report, CI validators)
// can evolve without guessing.
//
// This header owns only the schema constants and the validator — both are
// pure json_lite consumers, so they live in src/obs below the simulation
// layer.  Assembling a report from live SimResult/collector state is the
// job of src/sim/run_report.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json_lite.h"

namespace vodrep::obs {

/// Version 2 writes the event log column-wise (src/obs/event_log.h); a
/// version-1 report, with its `events.records` objects, no longer validates.
inline constexpr std::int64_t kRunReportSchemaVersion = 2;
inline constexpr const char* kRunReportKind = "vodrep_run_report";
/// Version of the optional `profile` section (obs::profile_json, which
/// stamps this constant).
inline constexpr std::int64_t kRunProfileVersion = 1;

/// Top-level keys every run report must carry.
[[nodiscard]] const std::vector<std::string>& run_report_required_keys();

/// Structural validation: every required top-level key present with the
/// right JSON shape, schema_version/kind correct, the timeline's and the
/// event log's columnar arrays equally sized, every event's outcome and
/// reason code inside its name table, the event log's seen count equal to
/// kept plus dropped records, and the per-reason rejection counts summing to
/// the rejection total.  Returns a human-readable problem per violation;
/// empty means the report is valid.  Never throws on a parsed document.
[[nodiscard]] std::vector<std::string> validate_run_report(
    const JsonValue& report);

}  // namespace vodrep::obs
