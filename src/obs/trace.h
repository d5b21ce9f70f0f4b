// Scoped-span recorder: the one instrumentation vocabulary of src/obs.
//
// Every recorded span is a "complete" event with its start, wall duration,
// thread-CPU duration and nesting depth on its thread.  write_json() exports
// the spans as chrome://tracing events ({"ph":"X"}, microsecond timestamps)
// that load directly in chrome://tracing or Perfetto (ui.perfetto.dev);
// obs::profile_snapshot() (src/obs/profile.h) aggregates the same spans into
// the per-path wall/CPU run profile.  Two independent switches keep
// instrumented hot paths free when observability is off:
//
//   * compile time — VODREP_TRACE_SCOPE expands to a ScopedTimer except in
//     the hook-free build (VODREP_NO_OBS_HOOKS, src/obs/hooks.h), where it
//     is a no-op statement;
//   * run time — TraceRecorder::set_enabled.  A disarmed ScopedTimer costs
//     one relaxed atomic load and touches neither the clocks, the
//     thread's span depth nor the event buffer, so the recorder performs
//     zero allocations on the hot path while disabled (asserted by
//     tests/trace_event_test.cc via the events_recorded counter).
//
// Storage is one lane per recording thread, indexed by a per-thread slot
// assigned in first-use order.  Each lane has exactly one writer, which
// publishes events with a release store of the lane's count; readers take an
// acquire load and only touch the published prefix.  Recording therefore
// never contends on a lock — the recorder is usable *on* the sharded
// simulation hot path without serializing the shards.  A lane is allocated
// to the configured capacity once, on the owning thread's first record after
// set_enabled (the enabling thread's lane is allocated eagerly inside
// set_enabled), and never grows; events beyond a lane's capacity are dropped
// and counted.  The allocation is left uninitialized, so a lane commits
// memory only as spans land in it.
//
// events() / write_json() merge the lanes into one deterministic order:
// sorted by start timestamp, thread slot breaking ties (and within one lane
// the recorded order is preserved for identical timestamps).  The same set
// of recorded spans therefore always exports byte-identically, regardless of
// which thread finished recording first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/hooks.h"
#include "src/util/thread_annotations.h"

namespace vodrep::obs {

/// One complete event; `name` must point at a string with static storage
/// duration (instrumentation sites pass literals), so recording never
/// copies or allocates per event.  Trivially default-constructible, so a
/// lane's slots stay uninitialized until a span is written into them.
struct TraceEvent {
  const char* name;
  std::uint64_t ts_ns;   ///< span start, steady-clock ns since process start
  std::uint64_t dur_ns;  ///< span wall duration
  std::uint64_t cpu_ns;  ///< thread-CPU time spent inside the span
  std::uint32_t tid;     ///< recording thread's slot (its lane index)
  std::uint32_t depth;   ///< armed spans enclosing it on its thread
};
static_assert(std::is_trivially_default_constructible_v<TraceEvent>);

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& global();

  /// Enables recording with `capacity` event slots *per thread lane*.  The
  /// calling thread's lane is allocated before this returns; other threads
  /// allocate theirs once, on their first record.  Disabling stops recording
  /// but keeps the buffered events for export.  Lanes already allocated keep
  /// their original capacity until clear().
  void set_enabled(bool enabled, std::size_t capacity = kDefaultCapacity)
      VODREP_EXCLUDES(mutex_);
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one complete event to the calling thread's lane (no-op while
  /// disabled).  Lock-free after the lane's one-time allocation.
  void record_complete(const char* name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, std::uint64_t cpu_ns,
                       std::uint32_t depth) noexcept VODREP_EXCLUDES(mutex_);

  /// Merged copy of the buffered events, sorted by (ts_ns, tid) — see the
  /// determinism note above.  Safe to call while other threads record; it
  /// sees each lane's published prefix.
  [[nodiscard]] std::vector<TraceEvent> events() const VODREP_EXCLUDES(mutex_);

  // Instrument counters, for tests and for the export metadata.
  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON ({"traceEvents":[...]}, ts/dur in fractional
  /// microseconds) over the merged, deterministically ordered events.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Discards buffered events, frees the lanes, and resets the instrument
  /// counters.  Requires recording threads to be quiescent (disable first;
  /// join or drain worker pools).
  void clear() VODREP_EXCLUDES(mutex_);

  /// Per-lane default capacity (events of sizeof(TraceEvent), 40 B on LP64).
  /// Total trace memory is at most capacity x lanes actually touched, and
  /// only the slots written so far are committed.
  static constexpr std::size_t kDefaultCapacity = 1 << 18;
  /// Threads with slot >= kMaxLanes drop-and-count rather than share a lane
  /// (a shared lane would have two writers and lose the lock-free publish).
  static constexpr std::size_t kMaxLanes = 64;

 private:
  /// Single-writer event buffer for one thread slot.  `count` is the
  /// publication point: the writer fills slots[count] then release-stores
  /// count+1; readers acquire-load count and read only [0, count).
  struct alignas(64) Lane {
    std::atomic<std::size_t> count{0};
    std::atomic<bool> ready{false};  ///< slots allocated, safe to write
    std::size_t capacity = 0;        ///< fixed while ready
    std::unique_ptr<TraceEvent[]> slots;
  };

  /// One-time allocation of `lane` at the configured capacity; a no-op when
  /// the lane is already allocated.
  void allocate_lane(Lane& lane) VODREP_REQUIRES(mutex_);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable Mutex mutex_;  ///< guards lane allocation / clear, not recording
  std::size_t capacity_ VODREP_GUARDED_BY(mutex_) = 0;
  const std::unique_ptr<Lane[]> lanes_;  ///< kMaxLanes entries, fixed address
};

/// RAII span: arms itself only when the recorder is enabled at construction,
/// then records one complete event at destruction.  Cheap enough to leave in
/// per-temperature-step and per-run scopes; per-event/per-move scopes should
/// stay coarser than the work they measure.  The armed paths are out of
/// line, so a span inlines into a hot function as one load and one test.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept {
    if (TraceRecorder::global().enabled()) open(name);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (name_ != nullptr) close();
  }

 private:
  void open(const char* name) noexcept;
  void close() noexcept;

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_cpu_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace vodrep::obs

// VODREP_TRACE_SCOPE("name"): declares a ScopedTimer covering the rest of
// the enclosing block.  Compiled out in the hook-free build.
#define VODREP_OBS_CONCAT_IMPL_(a, b) a##b
#define VODREP_OBS_CONCAT_(a, b) VODREP_OBS_CONCAT_IMPL_(a, b)

#if defined(VODREP_NO_OBS_HOOKS)
#define VODREP_TRACE_SCOPE(name) static_cast<void>(0)
#else
#define VODREP_TRACE_SCOPE(name) \
  ::vodrep::obs::ScopedTimer VODREP_OBS_CONCAT_(vodrep_trace_scope_, \
                                                __LINE__)(name)
#endif
