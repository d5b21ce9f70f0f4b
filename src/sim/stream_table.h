// Per-stream records of a storage policy, bounded by the live streams.
//
// A policy opens one record per admitted stream and closes it when the
// stream departs or a crash kills it.  Ids are the admission numbers 0, 1,
// 2, ... (what the policy passes to SimEngine::schedule_departure as the
// departure payload).  Closing a record retires the closed prefix of the
// table, so storage holds only the span from the oldest open record to the
// newest one: O(λ·T) for streams that hold their bandwidth for at most T,
// not O(requests).  The records live in a power-of-two ring that grows by
// doubling and is reused without a per-stream allocation once warm.
//
// EventHeap's FIFO lane (src/sim/event_heap.h) is the same structure: a
// cancelled lane event is a closed record, drained once it reaches the head.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace vodrep {

template <typename Record>
class StreamTable {
 public:
  using Id = std::size_t;

  /// Opens a record; ids are consecutive in admission order.
  Id open(const Record& record) {
    if (end_ - begin_ == slots_.size()) grow();
    Slot& slot = slots_[end_ & mask_];
    slot.record = record;
    slot.open = true;
    ++live_;
    return end_++;
  }

  /// Closes an open record.  Once the oldest open record closes, every
  /// closed record up to the next open one is retired.
  void close(Id id) {
    VODREP_DCHECK(is_open(id), "StreamTable::close: record is not open");
    slots_[id & mask_].open = false;
    --live_;
    if (id != begin_) return;
    do {
      ++begin_;
    } while (begin_ != end_ && !slots_[begin_ & mask_].open);
  }

  [[nodiscard]] bool is_open(Id id) const {
    return id >= begin_ && id < end_ && slots_[id & mask_].open;
  }

  /// The record of an open id.
  [[nodiscard]] Record& operator[](Id id) {
    VODREP_DCHECK(is_open(id), "StreamTable: record is not open");
    return slots_[id & mask_].record;
  }
  [[nodiscard]] const Record& operator[](Id id) const {
    VODREP_DCHECK(is_open(id), "StreamTable: record is not open");
    return slots_[id & mask_].record;
  }

  /// Number of open records.
  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// The oldest open record's id; requires a non-empty table.
  [[nodiscard]] Id front() const {
    VODREP_DCHECK(live_ > 0, "StreamTable::front: no open record");
    return begin_;
  }
  /// Record slots allocated: a power of two no smaller than the span of
  /// ids from the oldest open record to the newest.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Calls fn(id, record) for every open record in admission order.  `fn`
  /// may close the record it is given but must not open one.
  template <typename Fn>
  void for_each_open(Fn&& fn) {
    const Id end = end_;
    for (Id id = begin_; id != end; ++id) {
      Slot& slot = slots_[id & mask_];
      if (slot.open) fn(id, slot.record);
    }
  }

 private:
  struct Slot {
    Record record{};
    bool open = false;
  };

  /// Doubles the ring, keeping every unretired record at its id's slot.
  void grow() {
    std::vector<Slot> larger(slots_.empty() ? kInitialSlots
                                            : 2 * slots_.size());
    const std::size_t mask = larger.size() - 1;
    for (Id id = begin_; id != end_; ++id) {
      larger[id & mask] = std::move(slots_[id & mask_]);
    }
    slots_ = std::move(larger);
    mask_ = mask;
  }

  static constexpr std::size_t kInitialSlots = 16;

  std::vector<Slot> slots_;  ///< ring indexed by id & mask_
  std::size_t mask_ = 0;
  Id begin_ = 0;  ///< oldest open id, or end_ when none is open
  Id end_ = 0;    ///< the next id to open
  std::size_t live_ = 0;
};

}  // namespace vodrep
