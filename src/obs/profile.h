// Hierarchical run profiler: phase-level wall + thread-CPU accounting.
//
// VODREP_PROFILE_PHASE("name") opens a phase scope on the calling thread;
// scopes nest, building one phase tree per thread (keyed by the obs
// thread_slot).  Each node accumulates wall time (obs::steady_now_ns),
// thread CPU time (obs::thread_cpu_now_ns, i.e. CLOCK_THREAD_CPUTIME_ID),
// and an entry count.  snapshot() merges the per-thread trees into one
// deterministic forest — nodes are matched by phase-name path and children
// sorted by name, so the merged profile is identical regardless of which
// threads ran which phases in what order — and stamps the process max-RSS.
//
// Like the trace recorder, the profiler is off by default: a ProfilePhase
// on a disabled profiler costs one relaxed atomic load and performs no
// allocation or clock read (tests/profile_test.cc pins this), so phase
// scopes can stay in the sharded-simulation and annealing hot loops.
//
// Contract: enter/leave run lock-free on the owning thread's tree after a
// one-time registration; snapshot()/clear() require phase activity on other
// threads to be quiescent (scopes closed, worker pools idle), the same
// quiesce-then-export discipline the metrics and trace layers use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/hooks.h"
#include "src/util/thread_annotations.h"

namespace vodrep::obs {

class JsonValue;

/// One node of the merged phase forest.
struct PhaseStats {
  std::string name;
  std::uint64_t wall_ns = 0;  ///< total wall time inside the phase
  std::uint64_t cpu_ns = 0;   ///< total CPU time of the threads in the phase
  std::uint64_t count = 0;    ///< times the phase was entered
  std::vector<PhaseStats> children;  ///< sorted by name
};

/// Merged, quiescent view of a profiler.
struct ProfileSnapshot {
  std::vector<PhaseStats> phases;  ///< root phases, sorted by name
  std::uint64_t max_rss_kb = 0;    ///< process high-water RSS at snapshot
};

class RunProfiler {
 public:
  RunProfiler() = default;
  RunProfiler(const RunProfiler&) = delete;
  RunProfiler& operator=(const RunProfiler&) = delete;

  static RunProfiler& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens/closes a phase on the calling thread.  Callers pair them via
  /// ProfilePhase; `name` must have static storage duration (literals).
  void enter(const char* name) noexcept VODREP_EXCLUDES(mutex_);
  void leave() noexcept;

  /// Deterministic merged view (see file comment for the merge order).
  [[nodiscard]] ProfileSnapshot snapshot() const VODREP_EXCLUDES(mutex_);

  /// Versioned JSON export: {"profile_version":1,"max_rss_kb":...,
  /// "trace":{"recorded":...,"dropped":...},"phases":[{name,wall_ns,cpu_ns,
  /// count,children},...]}.  The trace block carries the trace-buffer
  /// health counters so a profile is self-describing about event loss.
  [[nodiscard]] JsonValue to_json() const VODREP_EXCLUDES(mutex_);

  /// Drops all per-thread trees.  Requires quiescent phase activity.
  void clear() VODREP_EXCLUDES(mutex_);

  /// Number of threads that have recorded at least one phase since the last
  /// clear() — stays 0 while the profiler is disabled (the "disabled
  /// profiler allocates nothing" contract).
  [[nodiscard]] std::size_t threads_registered() const VODREP_EXCLUDES(mutex_);

  static constexpr int kProfileVersion = 1;

  /// Per-thread phase tree; defined in profile.cc (public so the merge
  /// helpers there can name it — not part of the API).
  struct ThreadTree;

 private:
  /// The calling thread's tree, registering it on first use (mutex only on
  /// that first call per thread per clear-epoch).
  ThreadTree* local_tree() VODREP_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  /// Bumped by clear() so cached thread-local tree pointers self-invalidate.
  std::atomic<std::uint64_t> epoch_{1};
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ThreadTree>> trees_ VODREP_GUARDED_BY(mutex_);
};

/// RAII phase scope; arms itself only when the profiler is enabled at
/// construction (mirrors ScopedTimer).
class ProfilePhase {
 public:
  explicit ProfilePhase(const char* name) noexcept {
    if (RunProfiler::global().enabled()) {
      armed_ = true;
      RunProfiler::global().enter(name);
    }
  }
  ProfilePhase(const ProfilePhase&) = delete;
  ProfilePhase& operator=(const ProfilePhase&) = delete;
  ~ProfilePhase() {
    if (armed_) RunProfiler::global().leave();
  }

 private:
  bool armed_ = false;
};

}  // namespace vodrep::obs

#ifndef VODREP_OBS_CONCAT_
#define VODREP_OBS_CONCAT_IMPL_(a, b) a##b
#define VODREP_OBS_CONCAT_(a, b) VODREP_OBS_CONCAT_IMPL_(a, b)
#endif

/// Declares a ProfilePhase covering the rest of the enclosing block.
/// Compiled out in the hook-free build (src/obs/hooks.h).
#if defined(VODREP_NO_OBS_HOOKS)
#define VODREP_PROFILE_PHASE(name) static_cast<void>(0)
#else
#define VODREP_PROFILE_PHASE(name) \
  ::vodrep::obs::ProfilePhase VODREP_OBS_CONCAT_(vodrep_profile_phase_, \
                                                 __LINE__)(name)
#endif
