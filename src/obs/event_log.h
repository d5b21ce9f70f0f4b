// Bounded per-request event log: one fixed-size record per simulated
// request, so a run can be explained request by request — which server
// served it, whether it was redirected/proxied/batched, and *why* a
// rejection happened (typed reason), not just that one did.
//
// Design rules (the same as the rest of src/obs):
//   * bounded — the record buffer is reserved up front at `capacity`;
//     records beyond it are dropped and counted (`dropped()`), never
//     allocated, so logging a long run degrades gracefully;
//   * zero hot-path allocation — RequestRecord is a flat POD and record()
//     is a bounds check plus an indexed store;
//   * attribution is exact even under overflow — the engine tallies
//     per-reason rejection counts in SimResult itself (always on, one array
//     increment per rejection), so the breakdown reconciles with
//     SimResult::rejected regardless of how many records the log kept.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/obs/json_lite.h"

namespace vodrep::obs {

/// Why a request was rejected.  kNone marks non-rejections; policies must
/// attribute every rejection to one of the concrete reasons.
enum class RejectReason : std::uint8_t {
  kNone = 0,               ///< the request was not rejected
  kNoBandwidth,            ///< scheduled server(s) lacked outgoing bandwidth
  kNoReplicaAlive,         ///< every replica holder of the video has crashed
  kStripeUnavailable,      ///< a stripe-group member has crashed
  kCacheMissOriginBusy,    ///< edge-cache miss and the origin had no bandwidth
};
inline constexpr std::size_t kNumRejectReasons = 5;

[[nodiscard]] std::string_view reject_reason_name(RejectReason reason);

/// What finally happened to a request (one primary outcome per request;
/// rejected > batched > proxied > redirected > served).
enum class RequestOutcome : std::uint8_t {
  kServed = 0,   ///< admitted on the round-robin pick
  kRedirected,   ///< admitted on another replica holder
  kProxied,      ///< admitted via a backbone proxy
  kBatched,      ///< joined an existing stream
  kRejected,
};
inline constexpr std::size_t kNumRequestOutcomes = 5;

[[nodiscard]] std::string_view request_outcome_name(RequestOutcome outcome);

/// One dispatched request.  Flat POD so recording never allocates.
struct RequestRecord {
  double arrival_time = 0.0;
  std::uint32_t video = 0;
  /// Primary serving server (the stripe-group lead for striped/hybrid
  /// organizations); -1 when the request was rejected.
  std::int32_t server = -1;
  RequestOutcome outcome = RequestOutcome::kServed;
  RejectReason reason = RejectReason::kNone;

  friend bool operator==(const RequestRecord&, const RequestRecord&) = default;
};

class EventLog {
 public:
  /// Reserves `capacity` record slots up front; record() never reallocates.
  explicit EventLog(std::size_t capacity);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one record, or drops and counts it when the buffer is full.
  /// `record.arrival_time` is engine-local; the stored record carries
  /// offset + time (see set_time_offset).
  void record(RequestRecord record) noexcept {
    ++seen_;
    if (records_.size() < capacity_) {
      record.arrival_time += offset_;
      records_.push_back(record);
    } else {
      ++dropped_;
    }
  }

  /// Shifts subsequent record() times by `offset` so multi-epoch drivers
  /// concatenate per-epoch engine clocks into one global timeline (same
  /// convention as TimeseriesCollector).
  void set_time_offset(double offset) noexcept { offset_ = offset; }
  [[nodiscard]] double time_offset() const noexcept { return offset_; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records actually kept (== seen() - dropped()).
  [[nodiscard]] const std::vector<RequestRecord>& records() const {
    return records_;
  }
  /// Every record offered, kept or not.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// The run report's `events` section, column-wise like the timeline:
  /// {"capacity","seen","dropped","num_records","outcome_names",
  /// "reason_names","t":[..],"video":[..],"server":[..],"outcome":[..],
  /// "reason":[..]}, where outcome and reason are integer codes into the two
  /// name tables.  A null `log` gives the same shape with capacity 0 and no
  /// records.
  [[nodiscard]] static JsonValue to_json(const EventLog* log);

  void clear();

 private:
  std::size_t capacity_ = 0;
  double offset_ = 0.0;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<RequestRecord> records_;
};

}  // namespace vodrep::obs
