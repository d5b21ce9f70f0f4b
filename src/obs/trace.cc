#include "src/obs/trace.h"

#include <algorithm>
#include <sstream>

#include "src/obs/clock.h"
#include "src/obs/json_lite.h"

namespace vodrep::obs {

namespace {

/// Armed spans open on the calling thread: the depth the next one records.
thread_local std::uint32_t tl_open_spans = 0;

/// Stable small integer for the calling thread: its lane index and the tid
/// of its events.  Assigned in first-use order, so single-threaded programs
/// always map to slot 0.
std::uint32_t thread_slot() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

TraceRecorder::TraceRecorder() : lanes_(new Lane[kMaxLanes]) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_enabled(bool enabled, std::size_t capacity) {
  {
    MutexLock lock(mutex_);
    if (enabled) {
      capacity_ = capacity;
      // Allocate the enabling thread's lane now, so single-threaded programs
      // (always slot 0) never allocate on the record path at all.
      const std::uint32_t slot = thread_slot();
      if (slot < kMaxLanes) allocate_lane(lanes_[slot]);
    }
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::allocate_lane(Lane& lane) {
  if (lane.ready.load(std::memory_order_relaxed)) return;
  // Uninitialized on purpose: pages are committed as spans are written.
  lane.slots = std::make_unique_for_overwrite<TraceEvent[]>(capacity_);
  lane.capacity = capacity_;
  lane.ready.store(true, std::memory_order_release);
}

void TraceRecorder::record_complete(const char* name, std::uint64_t ts_ns,
                                    std::uint64_t dur_ns, std::uint64_t cpu_ns,
                                    std::uint32_t depth) noexcept {
  if (!enabled()) return;
  const std::uint32_t tid = thread_slot();
  if (tid >= kMaxLanes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Lane& lane = lanes_[tid];
  if (!lane.ready.load(std::memory_order_acquire)) {
    // One-time lane allocation on this thread's first record; every later
    // record from this thread takes the lock-free path below.  The recorder
    // may have been disabled again by the time the lock is held.
    MutexLock lock(mutex_);
    if (!enabled()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    allocate_lane(lane);
  }
  const std::size_t idx = lane.count.load(std::memory_order_relaxed);
  if (idx >= lane.capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  lane.slots[idx] = TraceEvent{name, ts_ns, dur_ns, cpu_ns, tid, depth};
  lane.count.store(idx + 1, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  // The mutex excludes concurrent lane allocation; the acquire load of each
  // lane's count pairs with the writer's release store, so the published
  // prefix is safe to copy while that writer keeps recording past it.
  MutexLock lock(mutex_);
  std::vector<TraceEvent> merged;
  std::size_t total = 0;
  for (std::size_t slot = 0; slot < kMaxLanes; ++slot) {
    const Lane& lane = lanes_[slot];
    if (!lane.ready.load(std::memory_order_acquire)) continue;
    total += lane.count.load(std::memory_order_acquire);
  }
  merged.reserve(total);
  for (std::size_t slot = 0; slot < kMaxLanes; ++slot) {
    const Lane& lane = lanes_[slot];
    if (!lane.ready.load(std::memory_order_acquire)) continue;
    const std::size_t count = lane.count.load(std::memory_order_acquire);
    merged.insert(merged.end(), lane.slots.get(), lane.slots.get() + count);
  }
  // Deterministic merge order: start timestamp, thread slot tie-break.  The
  // concatenation above visits lanes in slot order and stable_sort keeps the
  // within-lane recorded order for identical (ts, tid) pairs, so the same
  // recorded spans always export identically.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.tid < b.tid;
                   });
  return merged;
}

void TraceRecorder::write_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  // Streamed rather than built as a JsonValue: trace buffers can hold ~1M
  // events and the flat writer keeps export memory at O(events).
  // chrome://tracing expects microseconds; the sub-microsecond residue is
  // kept as a zero-padded fractional part.
  const auto write_us = [&os](std::uint64_t ns) {
    os << (ns / 1000) << '.';
    const std::uint64_t frac = ns % 1000;
    if (frac < 100) os << '0';
    if (frac < 10) os << '0';
    os << frac;
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    write_json_string(os, event.name);
    os << ",\"cat\":\"vodrep\",\"ph\":\"X\",\"ts\":";
    write_us(event.ts_ns);
    os << ",\"dur\":";
    write_us(event.dur_ns);
    os << ",\"pid\":1,\"tid\":" << event.tid << "}";
  }
  os << "],\"otherData\":{\"recorded\":"
     << recorded_.load(std::memory_order_relaxed)
     << ",\"dropped\":" << dropped_.load(std::memory_order_relaxed) << "}}\n";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void TraceRecorder::clear() {
  MutexLock lock(mutex_);
  for (std::size_t slot = 0; slot < kMaxLanes; ++slot) {
    Lane& lane = lanes_[slot];
    lane.ready.store(false, std::memory_order_relaxed);
    lane.count.store(0, std::memory_order_relaxed);
    lane.capacity = 0;
    lane.slots.reset();
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void ScopedTimer::open(const char* name) noexcept {
  name_ = name;
  depth_ = tl_open_spans++;
  start_ns_ = steady_now_ns();
  start_cpu_ns_ = thread_cpu_now_ns();
}

void ScopedTimer::close() noexcept {
  const std::uint64_t cpu_ns = thread_cpu_now_ns() - start_cpu_ns_;
  const std::uint64_t dur_ns = steady_now_ns() - start_ns_;
  --tl_open_spans;
  TraceRecorder::global().record_complete(name_, start_ns_, dur_ns, cpu_ns,
                                          depth_);
}

}  // namespace vodrep::obs
