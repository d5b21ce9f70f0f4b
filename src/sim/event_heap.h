// Timestamped events in (time, insertion order) — the SimEngine's departure
// queue.
//
// Pending events sit in one of two lanes.  In the paper's §5 model every
// stream holds its bandwidth for the video length T, so departures fall due
// in the order they are scheduled: a push no earlier than the last event
// appended to the FIFO lane joins that lane's tail in O(1).  Any other push
// (abandonment, patching catch-up streams, cache-hit suffixes) enters an
// indexed binary min-heap in O(log n).  min_time() and pop_min() take the
// earlier of the two heads by (time, insertion sequence), so events with
// equal times pop in insertion order and the pop sequence is exactly that
// of a single heap: a replay is deterministic regardless of which lane an
// event took or how the heap happens to be balanced.
//
// push() returns a stable id that can cancel the event later (a stream
// killed by a server crash never fires its departure), which keeps the
// engine's hot loop free of tombstone checks.  Cancelling a heap event
// removes it in O(log n); cancelling a lane event leaves a tombstone in the
// lane's StreamTable (src/sim/stream_table.h) that is drained once it
// reaches the head, and lane ids are never reused.  size() counts pending
// events only, tombstones excluded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/stream_table.h"

namespace vodrep {

class EventHeap {
 public:
  using Id = std::size_t;

  /// One scheduled event: the time it fires and an opaque payload (the
  /// scheduler's stream index).
  struct Event {
    double time = 0.0;
    std::size_t payload = 0;
  };

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return heap_.size() + lane_.live();
  }

  /// Fire time of the earliest pending event.  Requires a non-empty heap.
  [[nodiscard]] double min_time() const;

  /// Schedules an event; ids of cancelled/popped heap events are recycled.
  Id push(double time, std::size_t payload);

  /// Removes and returns the earliest event (FIFO among equal times).
  Event pop_min();

  /// Removes a pending event.  Throws InvalidArgumentError when `id` is not
  /// currently scheduled (already popped or cancelled).
  void cancel(Id id);

  /// True while `id` is scheduled and has neither popped nor been cancelled.
  [[nodiscard]] bool active(Id id) const;

 private:
  static constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
  /// Set on lane ids; the remaining bits are the event's lane position.
  static constexpr Id kLaneBit = Id{1}
                                 << (std::numeric_limits<Id>::digits - 1);

  struct Node {
    double time = 0.0;
    std::uint64_t seq = 0;       ///< insertion order, breaks time ties
    std::size_t payload = 0;
    std::size_t pos = kUnplaced; ///< index in heap_, kUnplaced when inactive
  };

  struct LaneEvent {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::size_t payload = 0;
  };

  /// True when the next event to pop is the lane head.  Requires a
  /// non-empty heap.
  [[nodiscard]] bool lane_pops_first() const;
  /// Strict ordering of two nodes by (time, insertion order).
  [[nodiscard]] bool before(std::size_t node_a, std::size_t node_b) const;
  /// Writes node index `node` at heap position `pos` and records the
  /// back-pointer.
  void place(std::size_t pos, std::size_t node);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Removes the heap node at heap position `pos` and recycles its id.
  void remove_at(std::size_t pos);

  StreamTable<LaneEvent> lane_;  ///< FIFO lane, ordered by (time, seq)
  double lane_tail_time_ = 0.0;  ///< time of the lane's last append
  std::vector<Node> nodes_;
  std::vector<std::size_t> heap_;  ///< heap of indices into nodes_
  std::vector<Id> free_ids_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace vodrep
