// Run-report schema: build_run_report output must validate by
// construction, survive a serialize/parse round trip value-exact (the
// acceptance bar: the report's final Eq. 2 imbalance matches the SimResult
// to 1e-9 — here exactly), and the validator must name each structural
// violation.  Also covers aggregate_results, the epoch-folding arithmetic
// behind the online-adaptation reports.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/obs/event_log.h"
#include "src/obs/json_lite.h"
#include "src/obs/profile.h"
#include "src/obs/report.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/run_report.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

using obs::JsonValue;

struct RunFixture {
  SimConfig config;
  SimResult result;
  obs::JsonValue report;
};

/// Runs a small replicated-organization world with a timeline and event log
/// attached and assembles its report.
RunFixture run_small_world() {
  RunFixture fixture;
  constexpr std::size_t kServers = 4;
  constexpr std::size_t kVideos = 12;
  fixture.config.num_servers = kServers;
  fixture.config.bandwidth_bps_per_server = units::mbps(4) * 6.0;
  fixture.config.stream_bitrate_bps = units::mbps(4);
  fixture.config.video_duration_sec = 300.0;

  HostLists hosts(kVideos);
  for (std::size_t v = 0; v < kVideos; ++v) {
    hosts[v] = {v % kServers, (v + 1) % kServers};
  }
  const Layout layout(hosts);

  Rng rng(0x8E7);
  TraceSpec spec;
  spec.arrival_rate = 0.5;
  spec.horizon = 1200.0;
  spec.popularity = zipf_popularity(kVideos, 0.75);
  const RequestTrace trace = generate_trace(rng, spec);

  obs::TimeseriesConfig ts_config;
  ts_config.interval_sec = spec.horizon / 32.0;
  obs::TimeseriesCollector timeline(ts_config, kServers);
  timeline.annotate(600.0, "replan");
  obs::EventLog events(256);

  SimEngine engine(fixture.config);
  engine.attach_timeline(&timeline);
  engine.attach_event_log(&events);
  ReplicatedPolicy policy(layout, fixture.config);
  fixture.result = engine.run(policy, trace);

  JsonValue extra = JsonValue::object();
  extra.set("num_videos", JsonValue::integer_u64(kVideos));
  fixture.report = build_run_report(fixture.config, fixture.result, &timeline,
                                    &events, std::move(extra));
  return fixture;
}

/// Copy of `object` with `key` removed (JsonValue::set appends, so
/// mutations rebuild the object instead).
JsonValue without(const JsonValue& object, const std::string& key) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, value] : object.members()) {
    if (name != key) out.set(name, value);
  }
  return out;
}

/// Copy of `object` with `key` replaced by `value`.
JsonValue replaced(const JsonValue& object, const std::string& key,
                   JsonValue value) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, member] : object.members()) {
    out.set(name, name == key ? value : member);
  }
  return out;
}

bool any_problem_contains(const std::vector<std::string>& problems,
                          const std::string& needle) {
  for (const std::string& problem : problems) {
    if (problem.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(RunReportTest, BuiltReportValidatesCleanly) {
  const RunFixture fixture = run_small_world();
  const std::vector<std::string> problems =
      obs::validate_run_report(fixture.report);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  EXPECT_EQ(fixture.report.at("schema_version").as_int(),
            obs::kRunReportSchemaVersion);
  EXPECT_EQ(fixture.report.at("kind").as_string(), obs::kRunReportKind);
  EXPECT_EQ(fixture.report.at("config").at("num_videos").as_uint(), 12u);
  // The timeline captured real samples and the controller annotation.
  EXPECT_GE(fixture.report.at("timeline").at("num_samples").as_uint(), 2u);
  EXPECT_EQ(fixture.report.at("annotations").size(), 1u);
}

TEST(RunReportTest, RoundTripIsValueExact) {
  const RunFixture fixture = run_small_world();
  const JsonValue reparsed = obs::parse_json(fixture.report.dump());
  EXPECT_TRUE(obs::validate_run_report(reparsed).empty());
  // json_lite serializes with max_digits10, so the end-of-run Eq. 2
  // imbalance survives the round trip exactly — not just to 1e-9.
  EXPECT_EQ(reparsed.at("final").at("mean_imbalance_eq2").as_number(),
            fixture.result.mean_imbalance_eq2);
  EXPECT_EQ(reparsed.at("final").at("rejected").as_uint(),
            fixture.result.rejected);
  EXPECT_EQ(reparsed, fixture.report);
}

TEST(RunReportTest, PerReasonCountsSumToRejectedTotal) {
  const RunFixture fixture = run_small_world();
  const JsonValue& rejections = fixture.report.at("rejections");
  std::uint64_t sum = 0;
  for (const auto& [name, count] : rejections.at("by_reason").members()) {
    (void)name;
    sum += count.as_uint();
  }
  EXPECT_EQ(sum, rejections.at("total").as_uint());
  EXPECT_EQ(sum, fixture.result.rejected);
}

TEST(RunReportTest, NullCollectorsYieldEmptyButValidSections) {
  const RunFixture fixture = run_small_world();
  const JsonValue report = build_run_report(fixture.config, fixture.result,
                                            /*timeline=*/nullptr,
                                            /*events=*/nullptr);
  EXPECT_TRUE(obs::validate_run_report(report).empty());
  EXPECT_EQ(report.at("timeline").at("num_samples").as_uint(), 0u);
  EXPECT_EQ(report.at("annotations").size(), 0u);
  EXPECT_EQ(report.at("events").at("num_records").as_uint(), 0u);
}

TEST(RunReportValidatorTest, FlagsMissingTopLevelKey) {
  const RunFixture fixture = run_small_world();
  const auto problems =
      obs::validate_run_report(without(fixture.report, "final"));
  EXPECT_TRUE(any_problem_contains(problems, "missing required key 'final'"));
}

TEST(RunReportValidatorTest, FlagsWrongSchemaVersionAndKind) {
  const RunFixture fixture = run_small_world();
  const auto version_problems = obs::validate_run_report(
      replaced(fixture.report, "schema_version", JsonValue::integer(99)));
  EXPECT_TRUE(any_problem_contains(version_problems, "schema_version"));
  const auto kind_problems = obs::validate_run_report(
      replaced(fixture.report, "kind", JsonValue::string("other")));
  EXPECT_TRUE(any_problem_contains(kind_problems, "kind"));
}

TEST(RunReportValidatorTest, FlagsReasonSumMismatch) {
  const RunFixture fixture = run_small_world();
  JsonValue rejections = fixture.report.at("rejections");
  rejections = replaced(
      rejections, "total",
      JsonValue::integer_u64(rejections.at("total").as_uint() + 1));
  const auto problems = obs::validate_run_report(
      replaced(fixture.report, "rejections", std::move(rejections)));
  EXPECT_TRUE(any_problem_contains(problems, "does not sum"));
}

TEST(RunReportValidatorTest, FlagsColumnarSizeMismatch) {
  const RunFixture fixture = run_small_world();
  JsonValue timeline = fixture.report.at("timeline");
  timeline = replaced(timeline, "time", JsonValue::array());
  const auto problems = obs::validate_run_report(
      replaced(fixture.report, "timeline", std::move(timeline)));
  EXPECT_TRUE(any_problem_contains(problems, "timeline.time"));
}

/// `report` with events[key] replaced by `value`.
JsonValue with_event_field(const JsonValue& report, const std::string& key,
                           JsonValue value) {
  return replaced(report, "events",
                  replaced(report.at("events"), key, std::move(value)));
}

/// Copy of the array `column` with entry `index` replaced by `value`.
JsonValue with_entry(const JsonValue& column, std::size_t index,
                     JsonValue value) {
  JsonValue out = JsonValue::array();
  for (std::size_t i = 0; i < column.size(); ++i) {
    out.push_back(i == index ? value : column.items()[i]);
  }
  return out;
}

TEST(RunReportValidatorTest, FlagsRaggedEventColumns) {
  const RunFixture fixture = run_small_world();
  const JsonValue& events = fixture.report.at("events");
  ASSERT_GE(events.at("num_records").as_uint(), 2u);
  JsonValue shorter = JsonValue::array();
  for (std::size_t i = 1; i < events.at("video").size(); ++i) {
    shorter.push_back(events.at("video").items()[i]);
  }
  const auto problems = obs::validate_run_report(
      with_event_field(fixture.report, "video", std::move(shorter)));
  EXPECT_TRUE(any_problem_contains(problems, "events.video has"));
}

TEST(RunReportValidatorTest, FlagsEventCodesOutsideTheirTables) {
  const RunFixture fixture = run_small_world();
  const JsonValue& events = fixture.report.at("events");
  const auto outcome_codes = events.at("outcome_names").size();
  const auto out_of_range = obs::validate_run_report(with_event_field(
      fixture.report, "outcome",
      with_entry(events.at("outcome"), 1,
                 JsonValue::integer_u64(outcome_codes))));
  EXPECT_TRUE(
      any_problem_contains(out_of_range, "events.outcome[1] is not a code "
                                         "into events.outcome_names"));
  const auto negative = obs::validate_run_report(with_event_field(
      fixture.report, "reason",
      with_entry(events.at("reason"), 0, JsonValue::integer(-1))));
  EXPECT_TRUE(any_problem_contains(negative, "events.reason[0]"));
  for (JsonValue not_an_integer :
       {JsonValue::number(1.5), JsonValue::string("rejected")}) {
    const auto problems = obs::validate_run_report(with_event_field(
        fixture.report, "reason",
        with_entry(events.at("reason"), 0, std::move(not_an_integer))));
    EXPECT_TRUE(any_problem_contains(
        problems, "events.reason[0] is not a code into events.reason_names"));
  }
}

TEST(RunReportValidatorTest, FlagsEventAccountingMismatch) {
  const RunFixture fixture = run_small_world();
  const JsonValue& events = fixture.report.at("events");
  const auto seen = events.at("seen").as_uint();
  const auto unbalanced = obs::validate_run_report(with_event_field(
      fixture.report, "seen", JsonValue::integer_u64(seen + 1)));
  EXPECT_TRUE(any_problem_contains(unbalanced,
                                   "events.seen is not num_records + dropped"));
  const auto over_capacity = obs::validate_run_report(with_event_field(
      fixture.report, "capacity",
      JsonValue::integer_u64(events.at("num_records").as_uint() - 1)));
  EXPECT_TRUE(any_problem_contains(
      over_capacity, "events.num_records exceeds events.capacity"));
}

TEST(RunReportValidatorTest, FlagsVersionOneEventRecords) {
  const RunFixture fixture = run_small_world();
  // A version-1 report: per-record objects under events.records.
  JsonValue record = JsonValue::object();
  record.set("t", JsonValue::number(1.0));
  record.set("video", JsonValue::integer(0));
  record.set("server", JsonValue::integer(0));
  record.set("outcome", JsonValue::string("served"));
  record.set("reason", JsonValue::string("none"));
  JsonValue records = JsonValue::array();
  records.push_back(std::move(record));
  JsonValue events = JsonValue::object();
  events.set("capacity", JsonValue::integer(1));
  events.set("seen", JsonValue::integer(1));
  events.set("dropped", JsonValue::integer(0));
  events.set("records", std::move(records));
  const JsonValue v1 = replaced(
      replaced(fixture.report, "schema_version", JsonValue::integer(1)),
      "events", std::move(events));
  const auto problems = obs::validate_run_report(v1);
  EXPECT_TRUE(any_problem_contains(problems, "schema_version is not 2"));
  EXPECT_TRUE(any_problem_contains(problems, "events.num_records"));
}

TEST(RunReportValidatorTest, FlagsNonObjectInput) {
  const auto problems = obs::validate_run_report(JsonValue::array());
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_TRUE(any_problem_contains(problems, "not a JSON object"));
}

/// Minimal well-formed `profile` section (the obs::profile_json shape)
/// for validator tests that do not want to run a profiled simulation.
JsonValue tiny_profile() {
  JsonValue phase = JsonValue::object();
  phase.set("name", JsonValue::string("root"));
  phase.set("wall_ns", JsonValue::integer(1000));
  phase.set("cpu_ns", JsonValue::integer(900));
  phase.set("count", JsonValue::integer(1));
  phase.set("children", JsonValue::array());
  JsonValue phases = JsonValue::array();
  phases.push_back(std::move(phase));
  JsonValue profile = JsonValue::object();
  profile.set("profile_version", JsonValue::integer(obs::kRunProfileVersion));
  profile.set("max_rss_kb", JsonValue::integer_u64(1));
  profile.set("phases", std::move(phases));
  return profile;
}

TEST(RunReportValidatorTest, AcceptsWellFormedProfileSection) {
  const RunFixture fixture = run_small_world();
  JsonValue report = fixture.report;
  report.set("profile", tiny_profile());
  EXPECT_TRUE(obs::validate_run_report(report).empty());
}

TEST(RunReportValidatorTest, FlagsProfileSectionShapeProblems) {
  const RunFixture fixture = run_small_world();

  JsonValue as_array = fixture.report;
  as_array.set("profile", JsonValue::array());
  EXPECT_TRUE(any_problem_contains(obs::validate_run_report(as_array),
                                   "profile must carry"));

  JsonValue wrong_version = fixture.report;
  wrong_version.set("profile", replaced(tiny_profile(), "profile_version",
                                        JsonValue::integer(99)));
  EXPECT_TRUE(any_problem_contains(obs::validate_run_report(wrong_version),
                                   "profile.profile_version"));

  JsonValue bad_phase = tiny_profile();
  JsonValue phases = JsonValue::array();
  phases.push_back(replaced(bad_phase.at("phases").items().front(), "wall_ns",
                            JsonValue::string("fast")));
  bad_phase = replaced(bad_phase, "phases", std::move(phases));
  JsonValue bad_node = fixture.report;
  bad_node.set("profile", std::move(bad_phase));
  EXPECT_TRUE(any_problem_contains(obs::validate_run_report(bad_node),
                                   "'wall_ns' is not a non-negative integer"));
}

// Every simulate() is one sim.run span, so a profiled replay is never an
// empty profile, and that profile embeds into a run report that validates
// and round-trips.
TEST(RunReportProfileTest, SingleShardRunProfilesSimRun) {
  SimConfig config;
  config.num_servers = 2;
  config.bandwidth_bps_per_server = units::mbps(4) * 4.0;
  config.stream_bitrate_bps = units::mbps(4);
  config.video_duration_sec = 300.0;
  const Layout layout{{0}, {1}, {0, 1}};
  Rng rng(0x51);
  TraceSpec spec;
  spec.arrival_rate = 0.5;
  spec.horizon = 600.0;
  spec.popularity = zipf_popularity(3, 0.75);
  const RequestTrace trace = generate_trace(rng, spec);

  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  recorder.set_enabled(false);
  const obs::ProfileSnapshot snap = obs::profile_snapshot(recorder);
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "sim.run");
  EXPECT_EQ(snap.phases[0].count, 1u);
  EXPECT_GT(snap.phases[0].wall_ns, 0u);

  const JsonValue report =
      build_run_report(config, result, /*timeline=*/nullptr,
                       /*events=*/nullptr, JsonValue::object(),
                       obs::profile_json(recorder));
  recorder.clear();
  const std::vector<std::string> problems = obs::validate_run_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  EXPECT_EQ(report.at("profile").at("profile_version").as_int(),
            obs::kRunProfileVersion);
  const JsonValue reparsed = obs::parse_json(report.dump());
  EXPECT_TRUE(obs::validate_run_report(reparsed).empty());
  EXPECT_EQ(reparsed.at("profile"), report.at("profile"));
}

TEST(AggregateResultsTest, SumsCountersAveragesMeansAndTakesPeaks) {
  SimResult a;
  a.total_requests = 100;
  a.rejected = 10;
  a.rejected_by_reason[static_cast<std::size_t>(
      obs::RejectReason::kNoBandwidth)] = 8;
  a.rejected_by_reason[static_cast<std::size_t>(
      obs::RejectReason::kNoReplicaAlive)] = 2;
  a.redirected = 5;
  a.batched = 3;
  a.mean_imbalance_eq2 = 0.2;
  a.mean_imbalance_cv = 0.1;
  a.mean_imbalance_capacity = 0.05;
  a.peak_imbalance_eq2 = 0.8;
  a.served_per_server = {40, 50};
  a.utilization_per_server = {0.4, 0.6};

  SimResult b = a;
  b.total_requests = 50;
  b.rejected = 4;
  b.rejected_by_reason[static_cast<std::size_t>(
      obs::RejectReason::kNoBandwidth)] = 4;
  b.rejected_by_reason[static_cast<std::size_t>(
      obs::RejectReason::kNoReplicaAlive)] = 0;
  b.mean_imbalance_eq2 = 0.4;
  b.peak_imbalance_eq2 = 0.6;
  b.served_per_server = {20, 26};
  b.utilization_per_server = {0.2, 0.4};

  const SimResult total = aggregate_results({a, b});
  EXPECT_EQ(total.total_requests, 150u);
  EXPECT_EQ(total.rejected, 14u);
  EXPECT_EQ(total.rejected_by_reason[static_cast<std::size_t>(
                obs::RejectReason::kNoBandwidth)],
            12u);
  std::size_t reason_sum = 0;
  for (std::size_t count : total.rejected_by_reason) reason_sum += count;
  EXPECT_EQ(reason_sum, total.rejected);
  EXPECT_EQ(total.redirected, 10u);
  EXPECT_EQ(total.batched, 6u);
  EXPECT_DOUBLE_EQ(total.mean_imbalance_eq2, 0.3);
  EXPECT_DOUBLE_EQ(total.peak_imbalance_eq2, 0.8);
  EXPECT_EQ(total.served_per_server, (std::vector<std::size_t>{60, 76}));
  ASSERT_EQ(total.utilization_per_server.size(), 2u);
  EXPECT_DOUBLE_EQ(total.utilization_per_server[0], 0.3);
  EXPECT_DOUBLE_EQ(total.utilization_per_server[1], 0.5);
}

TEST(AggregateResultsTest, RejectsEmptyAndMismatchedInputs) {
  const std::vector<SimResult> empty;
  EXPECT_THROW(aggregate_results(empty), InvalidArgumentError);
  SimResult a;
  a.utilization_per_server = {0.1};
  SimResult b;
  b.utilization_per_server = {0.1, 0.2};
  const std::vector<SimResult> mismatched = {a, b};
  EXPECT_THROW(aggregate_results(mismatched), InvalidArgumentError);
  // Equal utilization sizes do not excuse a served-count mismatch: the
  // served tally is indexed by the first epoch's server count.
  a.served_per_server = {3, 4};
  a.utilization_per_server = {0.1, 0.2};
  b.served_per_server = {5};
  const std::vector<SimResult> served_mismatch = {a, b};
  EXPECT_THROW(aggregate_results(served_mismatch), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
