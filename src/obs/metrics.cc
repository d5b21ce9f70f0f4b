#include "src/obs/metrics.h"

#include <sstream>

#include "src/obs/json_lite.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace vodrep::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  require(!gauges_.contains(name), [&] {
    return "MetricsRegistry: '" + name + "' already registered as another kind";
  });
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  require(!counters_.contains(name), [&] {
    return "MetricsRegistry: '" + name + "' already registered as another kind";
  });
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  // The global snapshot also surfaces the trace recorder's health counters
  // (how much of the trace survived its bounded buffer), so one metrics
  // export answers "did observability itself drop anything".  Private
  // registries (tests) stay self-contained, and a disabled registry stays
  // empty — the same contract as every folded instrument.
  if (metrics_enabled() && this == &MetricsRegistry::global()) {
    const TraceRecorder& recorder = TraceRecorder::global();
    snap.counters["trace.events_recorded"] = recorder.events_recorded();
    snap.counters["trace.events_dropped"] = recorder.events_dropped();
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snap.counters) {
    counters.set(name, JsonValue::integer_u64(value));
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : snap.gauges) {
    gauges.set(name, JsonValue::number(value));
  }
  JsonValue root = JsonValue::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.write(os);
  os << "\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void MetricsRegistry::clear() {
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
}

}  // namespace vodrep::obs
