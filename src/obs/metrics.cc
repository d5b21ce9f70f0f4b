#include "src/obs/metrics.h"

#include <algorithm>
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

namespace detail {

std::uint32_t thread_slot() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  require(!bounds_.empty(), "Histogram: need at least one bucket boundary");
  require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
              std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
          "Histogram: bounds must be strictly increasing");
  buckets_ = std::vector<detail::CounterShard>((bounds_.size() + 1) *
                                               detail::kShards);
  for (std::atomic<double>& shard : sum_shards_) shard.store(0.0);
}

void Histogram::observe(double value) noexcept {
  // Upper-exclusive: first bound strictly greater than the value owns it.
  const auto bucket = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const std::size_t shard = detail::thread_slot() % detail::kShards;
  buckets_[bucket * detail::kShards + shard].value.fetch_add(
      1, std::memory_order_relaxed);
  count_shards_[shard].value.fetch_add(1, std::memory_order_relaxed);
  std::atomic<double>& sum = sum_shards_[shard];
  double current = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(current, current + value,
                                    std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    for (std::size_t s = 0; s < detail::kShards; ++s) {
      counts[b] += buckets_[b * detail::kShards + s].value.load(
          std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const detail::CounterShard& shard : count_shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const std::atomic<double>& shard : sum_shards_) {
    total += shard.load(std::memory_order_relaxed);
  }
  return total;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  require(!gauges_.contains(name) && !histograms_.contains(name), [&] {
    return "MetricsRegistry: '" + name + "' already registered as another kind";
  });
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  require(!counters_.contains(name) && !histograms_.contains(name), [&] {
    return "MetricsRegistry: '" + name + "' already registered as another kind";
  });
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  MutexLock lock(mutex_);
  require(!counters_.contains(name) && !gauges_.contains(name), [&] {
    return "MetricsRegistry: '" + name + "' already registered as another kind";
  });
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    require(slot->bounds() == bounds, [&] {
      return "MetricsRegistry: histogram '" + name +
             "' re-registered with different bounds";
    });
  }
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
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.bucket_counts = histogram->bucket_counts();
    data.count = histogram->count();
    data.sum = histogram->sum();
    snap.histograms[name] = std::move(data);
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
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, data] : snap.histograms) {
    JsonValue bounds = JsonValue::array();
    for (double bound : data.bounds) bounds.push_back(JsonValue::number(bound));
    JsonValue counts = JsonValue::array();
    for (std::uint64_t c : data.bucket_counts) {
      counts.push_back(JsonValue::integer_u64(c));
    }
    JsonValue entry = JsonValue::object();
    entry.set("bounds", std::move(bounds));
    entry.set("counts", std::move(counts));
    entry.set("count", JsonValue::integer_u64(data.count));
    entry.set("sum", JsonValue::number(data.sum));
    histograms.set(name, std::move(entry));
  }
  JsonValue root = JsonValue::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
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
  histograms_.clear();
}

}  // namespace vodrep::obs
