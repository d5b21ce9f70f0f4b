#include "src/obs/timeseries.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep::obs {

void TimeseriesConfig::validate() const {
  require(interval_sec > 0.0, "TimeseriesConfig: interval_sec must be > 0");
}

TimeseriesCollector::TimeseriesCollector(const TimeseriesConfig& config,
                                         std::size_t num_servers)
    : num_servers_(num_servers), interval_sec_(config.interval_sec) {
  config.validate();
  require(num_servers >= 1, "TimeseriesCollector: need at least one server");
  samples_.resize(kTimelineMaxSamples);
  for (TimeSample& sample : samples_) {
    sample.utilization.assign(num_servers_, 0.0);
  }
  annotations_.reserve(kTimelineMaxAnnotations);
}

void TimeseriesCollector::record(double eq2, double mean_util, double max_util,
                                 std::uint64_t requests, std::uint64_t rejected,
                                 const std::vector<double>& utilization,
                                 std::uint64_t cache_hits,
                                 std::uint64_t cache_misses) {
  VODREP_DCHECK(utilization.size() == num_servers_,
                "TimeseriesCollector: utilization size mismatch");
  if (size_ == kTimelineMaxSamples) compact();
  TimeSample& slot = samples_[size_++];
  slot.time = next_due_global_;
  slot.imbalance_eq2 = eq2;
  slot.mean_utilization = mean_util;
  slot.max_utilization = max_util;
  slot.requests = requests;
  slot.rejected = rejected;
  slot.cache_hits = cache_hits;
  slot.cache_misses = cache_misses;
  std::copy(utilization.begin(), utilization.end(), slot.utilization.begin());
  next_due_global_ += interval_sec_;
}

void TimeseriesCollector::compact() {
  // Keep samples 0, 2, 4, ... — with the first sample at t = 0 and the grid
  // uniform, the survivors sit exactly on the doubled-interval grid, so
  // repeated compaction preserves a uniform timeline.  Slot swap, no
  // allocation.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < size_; i += 2) {
    if (keep != i) std::swap(samples_[keep], samples_[i]);
    ++keep;
  }
  size_ = keep;
  interval_sec_ *= 2.0;
  downsample_factor_ *= 2;
}

void TimeseriesCollector::merge_shards(
    const std::vector<const TimeseriesCollector*>& shards) {
  require(!shards.empty(), "merge_shards: need at least one shard collector");
  require(size_ == 0 && downsample_factor_ == 1 && offset_ == 0.0,
          "merge_shards: target collector must be fresh");
  const TimeseriesCollector& first = *shards.front();
  require(first.num_servers_ == num_servers_,
          "merge_shards: target collector configured unlike the shards");
  for (const TimeseriesCollector* shard : shards) {
    require(shard->num_servers_ == num_servers_ &&
                shard->size_ == first.size_ &&
                shard->interval_sec_ == first.interval_sec_ &&
                shard->downsample_factor_ == first.downsample_factor_,
            "merge_shards: shard collectors recorded on different grids");
  }
  // Adopt the (possibly compacted) shard grid, then merge slot by slot.
  interval_sec_ = first.interval_sec_;
  downsample_factor_ = first.downsample_factor_;
  next_due_global_ = first.next_due_global_;
  size_ = first.size_;
  for (std::size_t i = 0; i < size_; ++i) {
    TimeSample& slot = samples_[i];
    slot = first.samples_[i];
    for (std::size_t k = 1; k < shards.size(); ++k) {
      const TimeSample& other = shards[k]->samples_[i];
      require(other.time == slot.time,
              "merge_shards: shard sample times diverge");
      slot.mean_utilization += other.mean_utilization;
      slot.max_utilization =
          std::max(slot.max_utilization, other.max_utilization);
      slot.requests += other.requests;
      slot.rejected += other.rejected;
      slot.cache_hits += other.cache_hits;
      slot.cache_misses += other.cache_misses;
      for (std::size_t s = 0; s < num_servers_; ++s) {
        slot.utilization[s] += other.utilization[s];
      }
    }
    slot.imbalance_eq2 =
        imbalance_eq2(slot.max_utilization, slot.mean_utilization);
  }
}

void TimeseriesCollector::annotate(double global_time, std::string label) {
  if (annotations_.size() >= kTimelineMaxAnnotations) {
    ++annotations_dropped_;
    return;
  }
  annotations_.push_back(TimelineAnnotation{global_time, std::move(label)});
}

std::vector<TimeSample> TimeseriesCollector::samples() const {
  return std::vector<TimeSample>(samples_.begin(),
                                 samples_.begin() +
                                     static_cast<std::ptrdiff_t>(size_));
}

JsonValue TimeseriesCollector::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("interval_sec", JsonValue::number(interval_sec_));
  root.set("downsample_factor", JsonValue::integer_u64(downsample_factor_));
  root.set("num_samples", JsonValue::integer_u64(size_));
  JsonValue time = JsonValue::array();
  JsonValue eq2 = JsonValue::array();
  JsonValue mean_util = JsonValue::array();
  JsonValue max_util = JsonValue::array();
  JsonValue requests = JsonValue::array();
  JsonValue rejected = JsonValue::array();
  JsonValue cache_hits = JsonValue::array();
  JsonValue cache_misses = JsonValue::array();
  for (std::size_t i = 0; i < size_; ++i) {
    const TimeSample& s = samples_[i];
    time.push_back(JsonValue::number(s.time));
    eq2.push_back(JsonValue::number(s.imbalance_eq2));
    mean_util.push_back(JsonValue::number(s.mean_utilization));
    max_util.push_back(JsonValue::number(s.max_utilization));
    requests.push_back(JsonValue::integer_u64(s.requests));
    rejected.push_back(JsonValue::integer_u64(s.rejected));
    cache_hits.push_back(JsonValue::integer_u64(s.cache_hits));
    cache_misses.push_back(JsonValue::integer_u64(s.cache_misses));
  }
  root.set("time", std::move(time));
  root.set("imbalance_eq2", std::move(eq2));
  root.set("mean_utilization", std::move(mean_util));
  root.set("max_utilization", std::move(max_util));
  root.set("requests", std::move(requests));
  root.set("rejected", std::move(rejected));
  root.set("cache_hits", std::move(cache_hits));
  root.set("cache_misses", std::move(cache_misses));
  JsonValue per_server = JsonValue::array();
  for (std::size_t s = 0; s < num_servers_; ++s) {
    JsonValue series = JsonValue::array();
    for (std::size_t i = 0; i < size_; ++i) {
      series.push_back(JsonValue::number(samples_[i].utilization[s]));
    }
    per_server.push_back(std::move(series));
  }
  root.set("utilization_per_server", std::move(per_server));
  return root;
}

JsonValue TimeseriesCollector::annotations_json() const {
  JsonValue array = JsonValue::array();
  for (const TimelineAnnotation& annotation : annotations_) {
    JsonValue entry = JsonValue::object();
    entry.set("t", JsonValue::number(annotation.time));
    entry.set("label", JsonValue::string(annotation.label));
    array.push_back(std::move(entry));
  }
  return array;
}

}  // namespace vodrep::obs
