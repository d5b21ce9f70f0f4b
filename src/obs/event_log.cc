#include "src/obs/event_log.h"

#include <span>
#include <string>

#include "src/util/error.h"

namespace vodrep::obs {

std::string_view reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kNoBandwidth:
      return "no_bandwidth";
    case RejectReason::kNoReplicaAlive:
      return "no_replica_alive";
    case RejectReason::kStripeUnavailable:
      return "stripe_unavailable";
    case RejectReason::kCacheMissOriginBusy:
      return "cache_miss_origin_busy";
  }
  return "unknown";
}

std::string_view request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed:
      return "served";
    case RequestOutcome::kRedirected:
      return "redirected";
    case RequestOutcome::kProxied:
      return "proxied";
    case RequestOutcome::kBatched:
      return "batched";
    case RequestOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "EventLog: capacity must be at least 1");
  records_.reserve(capacity);
}

JsonValue EventLog::to_json(const EventLog* log) {
  const std::span<const RequestRecord> records =
      log != nullptr ? std::span<const RequestRecord>(log->records_)
                     : std::span<const RequestRecord>();
  JsonValue root = JsonValue::object();
  root.set("capacity",
           JsonValue::integer_u64(log != nullptr ? log->capacity_ : 0));
  root.set("seen", JsonValue::integer_u64(log != nullptr ? log->seen_ : 0));
  root.set("dropped",
           JsonValue::integer_u64(log != nullptr ? log->dropped_ : 0));
  root.set("num_records", JsonValue::integer_u64(records.size()));
  JsonValue outcome_names = JsonValue::array();
  for (std::size_t code = 0; code < kNumRequestOutcomes; ++code) {
    outcome_names.push_back(JsonValue::string(std::string(
        request_outcome_name(static_cast<RequestOutcome>(code)))));
  }
  root.set("outcome_names", std::move(outcome_names));
  JsonValue reason_names = JsonValue::array();
  for (std::size_t code = 0; code < kNumRejectReasons; ++code) {
    reason_names.push_back(JsonValue::string(
        std::string(reject_reason_name(static_cast<RejectReason>(code)))));
  }
  root.set("reason_names", std::move(reason_names));

  JsonValue t = JsonValue::array();
  JsonValue video = JsonValue::array();
  JsonValue server = JsonValue::array();
  JsonValue outcome = JsonValue::array();
  JsonValue reason = JsonValue::array();
  for (JsonValue* column : {&t, &video, &server, &outcome, &reason}) {
    column->reserve(records.size());
  }
  for (const RequestRecord& record : records) {
    t.push_back(JsonValue::number(record.arrival_time));
    video.push_back(JsonValue::integer_u64(record.video));
    server.push_back(JsonValue::integer(record.server));
    outcome.push_back(
        JsonValue::integer(static_cast<std::int64_t>(record.outcome)));
    reason.push_back(
        JsonValue::integer(static_cast<std::int64_t>(record.reason)));
  }
  root.set("t", std::move(t));
  root.set("video", std::move(video));
  root.set("server", std::move(server));
  root.set("outcome", std::move(outcome));
  root.set("reason", std::move(reason));
  return root;
}

void EventLog::clear() {
  offset_ = 0.0;
  seen_ = 0;
  dropped_ = 0;
  records_.clear();
}

}  // namespace vodrep::obs
