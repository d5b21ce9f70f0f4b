// Metrics registry: named counters and gauges, folded into once per run.
//
// Design targets (DESIGN.md §7):
//   * registration is thread-safe (registry mutex) and idempotent — asking
//     for an existing name returns the same instrument;
//   * an instrument is one relaxed atomic, so concurrent writers never lose
//     an update and value()/snapshot() need no fold.  Library code writes
//     only in end-of-run (or per-epoch) epilogues that fold its own plain
//     tallies, a few dozen adds per run, so the instruments are never on a
//     hot path;
//   * those epilogues run only when the process-wide metrics_enabled()
//     switch is on (one relaxed atomic load when off);
//   * write_json() emits a deterministic machine-readable snapshot.
//
// Instrument references returned by the registry stay valid until clear();
// library epilogues therefore re-look instruments up by name per run instead
// of caching them across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "src/util/thread_annotations.h"

namespace vodrep::obs {

/// Process-wide runtime switch consulted by all instrumented code.
/// Off by default; CLIs flip it when --metrics-out is given.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Lock-free; concurrent adds from any number of threads sum exactly.
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Exact once concurrent writers have quiesced.
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) double value, e.g. a high-water mark.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Atomic add (CAS loop).
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `value` if larger (high-water marks).
  void set_max(double value) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Deep-copied, quiescent view of a registry (for programmatic assertions;
/// JSON export reads the live registry directly).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// Named-instrument registry.  The process-wide instance backs all library
/// instrumentation; tests may construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use.  Re-registering returns the identical instrument; registering a
  /// name that already exists as the other kind throws InvalidArgumentError.
  /// The returned reference is lock-free to use; only the registration map
  /// is guarded.
  Counter& counter(const std::string& name) VODREP_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) VODREP_EXCLUDES(mutex_);

  [[nodiscard]] MetricsSnapshot snapshot() const VODREP_EXCLUDES(mutex_);

  /// Deterministic JSON export: {"counters":{...},"gauges":{...}} with
  /// names sorted.
  void write_json(std::ostream& os) const VODREP_EXCLUDES(mutex_);
  [[nodiscard]] std::string to_json() const VODREP_EXCLUDES(mutex_);

  /// Drops every instrument.  Invalidates previously returned references —
  /// only for test isolation and CLI runs that own the whole process.
  void clear() VODREP_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      VODREP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      VODREP_GUARDED_BY(mutex_);
};

/// Shorthand for MetricsRegistry::global().
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace vodrep::obs
