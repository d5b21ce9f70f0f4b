#include "src/obs/report.h"

#include <algorithm>
#include <cstddef>

namespace vodrep::obs {

namespace {

/// True when `value` is a JSON integer >= 0.  The validator reports shape
/// problems instead of throwing, so every numeric field goes through this
/// (or is_int) before as_int()/as_uint() — a report whose counts are
/// strings, floats, or negative must come back as problems, not as an
/// InvalidArgumentError escaping validate_run_report (the
/// fuzz_report_schema target pins this no-throw contract).
[[nodiscard]] bool is_uint(const JsonValue& value) {
  return value.kind() == JsonValue::Kind::kInt && value.as_int() >= 0;
}

[[nodiscard]] bool is_int(const JsonValue& value) {
  return value.kind() == JsonValue::Kind::kInt;
}

/// Structural check of one merged phase node (obs::profile_json output):
/// name string, wall_ns/cpu_ns/count non-negative integers, recursive
/// children.  Depth-capped so a hostile document cannot recurse
/// the validator off the stack (the no-throw fuzz contract covers this
/// section too).
void check_phase_node(const JsonValue& node, int depth,
                      std::vector<std::string>* out) {
  constexpr int kMaxDepth = 64;
  if (depth > kMaxDepth) {
    out->push_back("profile.phases nests deeper than " +
                   std::to_string(kMaxDepth));
    return;
  }
  if (!node.is_object()) {
    out->push_back("profile phase node is not an object");
    return;
  }
  if (!node.has("name") || !node.at("name").is_string()) {
    out->push_back("profile phase node is missing string 'name'");
  }
  for (const char* key : {"wall_ns", "cpu_ns", "count"}) {
    if (!node.has(key) || node.at(key).kind() != JsonValue::Kind::kInt ||
        node.at(key).as_int() < 0) {
      out->push_back(std::string("profile phase node key '") + key +
                     "' is not a non-negative integer");
    }
  }
  if (!node.has("children") || !node.at("children").is_array()) {
    out->push_back("profile phase node is missing array 'children'");
    return;
  }
  for (const JsonValue& child : node.at("children").items()) {
    check_phase_node(child, depth + 1, out);
  }
}

void check_array_sizes(const JsonValue& timeline, const char* key,
                       std::size_t expected, std::vector<std::string>* out) {
  if (!timeline.has(key)) {
    out->push_back(std::string("timeline is missing key '") + key + "'");
    return;
  }
  const JsonValue& value = timeline.at(key);
  if (!value.is_array()) {
    out->push_back(std::string("timeline.") + key + " is not an array");
    return;
  }
  if (value.size() != expected) {
    out->push_back(std::string("timeline.") + key + " has " +
                   std::to_string(value.size()) + " entries, expected " +
                   std::to_string(expected));
  }
}

/// Entry count of the name table `events[key]`, or 0 (so that no code
/// indexes it) after reporting a table that is not an array of strings.
std::size_t name_table_size(const JsonValue& events, const char* key,
                            std::vector<std::string>* out) {
  if (events.has(key) && events.at(key).is_array()) {
    const auto& names = events.at(key).items();
    if (std::all_of(names.begin(), names.end(),
                    [](const JsonValue& name) { return name.is_string(); })) {
      return names.size();
    }
  }
  out->push_back(std::string("events.") + key + " is not an array of strings");
  return 0;
}

/// The column-wise event log: four counters, two name tables and five
/// columns of num_records entries each, every entry of the right type and
/// every outcome and reason code an index into its table.  One problem per
/// column at most, so a long log with one bad shape does not flood the list.
void check_events(const JsonValue& events, std::vector<std::string>* out) {
  if (!events.is_object()) {
    out->push_back("events is not an object");
    return;
  }
  bool counts_ok = true;
  for (const char* key : {"capacity", "seen", "dropped", "num_records"}) {
    if (!events.has(key) || !is_uint(events.at(key))) {
      out->push_back(std::string("events.") + key +
                     " is not a non-negative integer");
      counts_ok = false;
    }
  }
  if (!counts_ok) return;
  const std::uint64_t records = events.at("num_records").as_uint();
  if (events.at("seen").as_uint() != records + events.at("dropped").as_uint()) {
    out->push_back("events.seen is not num_records + dropped");
  }
  if (records > events.at("capacity").as_uint()) {
    out->push_back("events.num_records exceeds events.capacity");
  }
  const std::size_t outcomes = name_table_size(events, "outcome_names", out);
  const std::size_t reasons = name_table_size(events, "reason_names", out);

  const auto check_column = [&](const char* key, const char* entry,
                                const auto& valid) {
    if (!events.has(key) || !events.at(key).is_array()) {
      out->push_back(std::string("events.") + key + " is not an array");
      return;
    }
    const auto& entries = events.at(key).items();
    if (entries.size() != records) {
      out->push_back(std::string("events.") + key + " has " +
                     std::to_string(entries.size()) + " entries, expected " +
                     std::to_string(records));
      return;
    }
    const auto bad = std::find_if_not(entries.begin(), entries.end(), valid);
    if (bad != entries.end()) {
      out->push_back(std::string("events.") + key + "[" +
                     std::to_string(bad - entries.begin()) + "] is not " +
                     entry);
    }
  };
  check_column("t", "a number",
               [](const JsonValue& v) { return v.is_number(); });
  check_column("video", "a non-negative integer", is_uint);
  check_column("server", "an integer", is_int);
  check_column("outcome", "a code into events.outcome_names",
               [outcomes](const JsonValue& v) {
                 return is_uint(v) && v.as_uint() < outcomes;
               });
  check_column("reason", "a code into events.reason_names",
               [reasons](const JsonValue& v) {
                 return is_uint(v) && v.as_uint() < reasons;
               });
}

}  // namespace

const std::vector<std::string>& run_report_required_keys() {
  static const std::vector<std::string> keys = {
      "schema_version", "kind",        "generated_by", "config",
      "final",          "rejections",  "timeline",     "annotations",
      "events",
  };
  return keys;
}

std::vector<std::string> validate_run_report(const JsonValue& report) {
  std::vector<std::string> problems;
  if (!report.is_object()) {
    problems.push_back("report is not a JSON object");
    return problems;
  }
  for (const std::string& key : run_report_required_keys()) {
    if (!report.has(key)) {
      problems.push_back("missing required key '" + key + "'");
    }
  }
  if (!problems.empty()) return problems;

  if (!is_int(report.at("schema_version")) ||
      report.at("schema_version").as_int() != kRunReportSchemaVersion) {
    problems.push_back("schema_version is not " +
                       std::to_string(kRunReportSchemaVersion));
  }
  if (!report.at("kind").is_string() ||
      report.at("kind").as_string() != kRunReportKind) {
    problems.push_back(std::string("kind is not '") + kRunReportKind + "'");
  }
  if (!report.at("config").is_object()) {
    problems.push_back("config is not an object");
  }
  if (!report.at("annotations").is_array()) {
    problems.push_back("annotations is not an array");
  }

  const JsonValue& final_section = report.at("final");
  if (!final_section.is_object()) {
    problems.push_back("final is not an object");
  } else {
    for (const char* key :
         {"total_requests", "rejected", "rejection_rate", "mean_imbalance_eq2",
          "mean_imbalance_cv", "mean_imbalance_capacity", "peak_imbalance_eq2",
          "mean_utilization", "utilization_per_server"}) {
      if (!final_section.has(key)) {
        problems.push_back(std::string("final is missing key '") + key + "'");
      }
    }
  }

  const JsonValue& rejections = report.at("rejections");
  if (!rejections.is_object() || !rejections.has("total") ||
      !rejections.has("by_reason") || !rejections.at("by_reason").is_object()) {
    problems.push_back("rejections must carry 'total' and object 'by_reason'");
  } else if (!is_uint(rejections.at("total"))) {
    problems.push_back("rejections.total is not a non-negative integer");
  } else {
    std::uint64_t sum = 0;
    bool counts_ok = true;
    for (const auto& [name, count] : rejections.at("by_reason").members()) {
      if (!is_uint(count)) {
        problems.push_back("rejections.by_reason['" + name +
                           "'] is not a non-negative integer");
        counts_ok = false;
        continue;
      }
      sum += count.as_uint();
    }
    if (counts_ok && sum != rejections.at("total").as_uint()) {
      problems.push_back(
          "rejections.by_reason does not sum to rejections.total");
    }
  }

  const JsonValue& timeline = report.at("timeline");
  if (!timeline.is_object() || !timeline.has("num_samples")) {
    problems.push_back("timeline must be an object with 'num_samples'");
  } else if (!is_uint(timeline.at("num_samples"))) {
    problems.push_back("timeline.num_samples is not a non-negative integer");
  } else {
    const auto samples = static_cast<std::size_t>(
        timeline.at("num_samples").as_uint());
    for (const char* key : {"time", "imbalance_eq2", "mean_utilization",
                            "max_utilization", "requests", "rejected"}) {
      check_array_sizes(timeline, key, samples, &problems);
    }
    // Cache columns arrived with the edge-tier work; they are optional so
    // pre-cache reports stay valid, but when present they must line up.
    for (const char* key : {"cache_hits", "cache_misses"}) {
      if (timeline.has(key)) {
        check_array_sizes(timeline, key, samples, &problems);
      }
    }
    if (!timeline.has("utilization_per_server") ||
        !timeline.at("utilization_per_server").is_array()) {
      problems.push_back("timeline.utilization_per_server is not an array");
    } else {
      for (const JsonValue& series :
           timeline.at("utilization_per_server").items()) {
        if (!series.is_array() || series.size() != samples) {
          problems.push_back(
              "timeline.utilization_per_server series length mismatch");
          break;
        }
      }
    }
  }

  check_events(report.at("events"), &problems);

  // The profile section is optional (reports from runs without --profile-out
  // stay valid), but when present it must be the versioned profile_json
  // export: profile_version, max_rss_kb, and a well-formed phase forest.
  if (report.has("profile")) {
    const JsonValue& profile = report.at("profile");
    if (!profile.is_object() || !profile.has("profile_version") ||
        !profile.has("max_rss_kb") || !profile.has("phases") ||
        !profile.at("phases").is_array()) {
      problems.push_back(
          "profile must carry 'profile_version', 'max_rss_kb', and array "
          "'phases'");
    } else {
      if (!is_int(profile.at("profile_version")) ||
          profile.at("profile_version").as_int() != kRunProfileVersion) {
        problems.push_back("profile.profile_version is not " +
                           std::to_string(kRunProfileVersion));
      }
      if (!is_uint(profile.at("max_rss_kb"))) {
        problems.push_back("profile.max_rss_kb is not a non-negative integer");
      }
      for (const JsonValue& phase : profile.at("phases").items()) {
        check_phase_node(phase, 0, &problems);
      }
    }
  }
  return problems;
}

}  // namespace vodrep::obs
