// EventLog: the bounded per-request record buffer.  The contract under
// test: capacity is reserved up front and never exceeded, overflow drops
// and counts instead of allocating, seen == kept + dropped always, the
// epoch time offset shifts stored times (global timeline), and the JSON
// export carries the drop accounting alongside the kept records' columns.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "src/obs/event_log.h"
#include "src/util/error.h"

namespace vodrep::obs {
namespace {

RequestRecord make_record(double t, std::uint32_t video, std::int32_t server,
                          RequestOutcome outcome,
                          RejectReason reason = RejectReason::kNone) {
  RequestRecord record;
  record.arrival_time = t;
  record.video = video;
  record.server = server;
  record.outcome = outcome;
  record.reason = reason;
  return record;
}

TEST(EventLogTest, RejectsZeroCapacity) {
  EXPECT_THROW(EventLog(0), InvalidArgumentError);
}

TEST(EventLogTest, KeepsUpToCapacityThenDropsAndCounts) {
  EventLog log(3);
  for (std::size_t i = 0; i < 5; ++i) {
    log.record(make_record(static_cast<double>(i), 7, 1,
                           RequestOutcome::kServed));
  }
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.seen(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().size() + log.dropped(), log.seen());
  // The kept records are the first `capacity` offered, in order.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(log.records()[i].arrival_time, static_cast<double>(i));
  }
}

TEST(EventLogTest, RecordsCarryOutcomeAndReason) {
  EventLog log(4);
  log.record(make_record(1.0, 3, 0, RequestOutcome::kServed));
  log.record(make_record(2.0, 4, 2, RequestOutcome::kRedirected));
  log.record(make_record(3.0, 5, -1, RequestOutcome::kRejected,
                         RejectReason::kNoBandwidth));
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records()[1].outcome, RequestOutcome::kRedirected);
  EXPECT_EQ(log.records()[1].server, 2);
  EXPECT_EQ(log.records()[2].outcome, RequestOutcome::kRejected);
  EXPECT_EQ(log.records()[2].reason, RejectReason::kNoBandwidth);
  EXPECT_EQ(log.records()[2].server, -1);
}

TEST(EventLogTest, TimeOffsetShiftsStoredTimes) {
  EventLog log(4);
  log.record(make_record(5.0, 0, 0, RequestOutcome::kServed));
  log.set_time_offset(100.0);
  EXPECT_DOUBLE_EQ(log.time_offset(), 100.0);
  log.record(make_record(5.0, 0, 0, RequestOutcome::kServed));
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_DOUBLE_EQ(log.records()[0].arrival_time, 5.0);
  EXPECT_DOUBLE_EQ(log.records()[1].arrival_time, 105.0);
}

TEST(EventLogTest, ClearResetsCountersAndOffset) {
  EventLog log(2);
  log.set_time_offset(50.0);
  for (int i = 0; i < 4; ++i) {
    log.record(make_record(1.0, 0, 0, RequestOutcome::kServed));
  }
  log.clear();
  EXPECT_EQ(log.seen(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.records().empty());
  EXPECT_DOUBLE_EQ(log.time_offset(), 0.0);
  EXPECT_EQ(log.capacity(), 2u);
}

TEST(EventLogTest, JsonExportCarriesDropAccountingAndNames) {
  EventLog log(2);
  log.record(make_record(1.5, 9, 3, RequestOutcome::kBatched));
  log.record(make_record(2.5, 10, -1, RequestOutcome::kRejected,
                         RejectReason::kStripeUnavailable));
  log.record(make_record(3.5, 11, 0, RequestOutcome::kServed));  // dropped
  const JsonValue json = EventLog::to_json(&log);
  EXPECT_EQ(json.at("capacity").as_uint(), 2u);
  EXPECT_EQ(json.at("seen").as_uint(), 3u);
  EXPECT_EQ(json.at("dropped").as_uint(), 1u);
  EXPECT_EQ(json.at("num_records").as_uint(), 2u);
  for (const char* column : {"t", "video", "server", "outcome", "reason"}) {
    ASSERT_EQ(json.at(column).size(), 2u) << column;
  }
  // Outcome and reason are codes into the name tables.
  const auto outcome_name = [&](std::size_t i) {
    const auto code = json.at("outcome").items()[i].as_uint();
    return json.at("outcome_names").items().at(code).as_string();
  };
  const auto reason_name = [&](std::size_t i) {
    const auto code = json.at("reason").items()[i].as_uint();
    return json.at("reason_names").items().at(code).as_string();
  };
  EXPECT_DOUBLE_EQ(json.at("t").items()[0].as_number(), 1.5);
  EXPECT_EQ(json.at("video").items()[0].as_uint(), 9u);
  EXPECT_EQ(json.at("server").items()[0].as_int(), 3);
  EXPECT_EQ(outcome_name(0), "batched");
  EXPECT_EQ(reason_name(0), "none");
  EXPECT_DOUBLE_EQ(json.at("t").items()[1].as_number(), 2.5);
  EXPECT_EQ(json.at("video").items()[1].as_uint(), 10u);
  EXPECT_EQ(json.at("server").items()[1].as_int(), -1);
  EXPECT_EQ(outcome_name(1), "rejected");
  EXPECT_EQ(reason_name(1), "stripe_unavailable");
  EXPECT_EQ(json.at("outcome_names").size(), kNumRequestOutcomes);
  EXPECT_EQ(json.at("reason_names").size(), kNumRejectReasons);

  // A null log exports the same shape, empty.
  const JsonValue empty = EventLog::to_json(nullptr);
  ASSERT_EQ(empty.size(), json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    EXPECT_EQ(empty.members()[i].first, json.members()[i].first);
  }
  EXPECT_EQ(empty.at("capacity").as_uint(), 0u);
  EXPECT_EQ(empty.at("num_records").as_uint(), 0u);
  EXPECT_EQ(empty.at("t").size(), 0u);
  EXPECT_EQ(empty.at("reason_names"), json.at("reason_names"));
}

TEST(EventLogTest, ReasonAndOutcomeNamesAreStable) {
  EXPECT_EQ(reject_reason_name(RejectReason::kNone), "none");
  EXPECT_EQ(reject_reason_name(RejectReason::kNoBandwidth), "no_bandwidth");
  EXPECT_EQ(reject_reason_name(RejectReason::kNoReplicaAlive),
            "no_replica_alive");
  EXPECT_EQ(reject_reason_name(RejectReason::kStripeUnavailable),
            "stripe_unavailable");
  EXPECT_EQ(request_outcome_name(RequestOutcome::kServed), "served");
  EXPECT_EQ(request_outcome_name(RequestOutcome::kRejected), "rejected");
}

}  // namespace
}  // namespace vodrep::obs
