// Fixed-interval time-series collector for simulation load signals.
//
// The simulation engine samples the load-imbalance degree L (Eq. 2), the
// per-server utilizations l_j, and the running request/rejection counts at
// fixed simulated-time intervals.  The buffer is bounded: when a run
// outlives it, the collector compacts in place — it keeps every second
// sample and doubles the sampling interval — so an arbitrarily long run
// always yields at most kTimelineMaxSamples samples on a uniform grid.  The
// compaction is a pure function of the record sequence, so the same run
// produces a bit-identical series every time (asserted by
// tests/timeseries_test.cc).
//
// Zero hot-path allocation: every sample slot (including its per-server
// utilization vector) is allocated at construction; record() copies into a
// pre-sized slot and compaction swaps slots in place.
//
// The time axis is global: `set_time_offset` lets multi-epoch drivers (the
// online-adaptation paths) concatenate per-epoch engine clocks into one
// continuous timeline.  record() takes engine-local times and stores
// offset + time; annotate() takes *global* times, because annotations come
// from the orchestrator (controller replans at epoch boundaries), not from
// inside an engine run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json_lite.h"

namespace vodrep::obs {

/// Eq. 2's load-imbalance degree L = (max - mean) / mean of one utilization
/// snapshot; 0 for an idle cluster, and clamped at 0 because with equal
/// loads the summed mean can exceed the max by a few ulps.  The engine's
/// Eq. 2 integrand, its timeline samples and the sharded timeline merge all
/// evaluate this one formula.
[[nodiscard]] inline double imbalance_eq2(double max_util, double mean_util) {
  return max_util > 0.0 && mean_util > 0.0
             ? std::max(0.0, (max_util - mean_util) / mean_util)
             : 0.0;
}

/// Compaction bound of every collector (even, so a compaction halves it).
inline constexpr std::size_t kTimelineMaxSamples = 512;
/// Annotations a collector keeps; later ones are dropped and counted.
inline constexpr std::size_t kTimelineMaxAnnotations = 256;

struct TimeseriesConfig {
  double interval_sec = 0.0;  ///< initial sampling interval, > 0

  void validate() const;
};

/// One snapshot of the piecewise-constant load state.
struct TimeSample {
  double time = 0.0;              ///< global simulated time (offset applied)
  double imbalance_eq2 = 0.0;     ///< instantaneous L (Eq. 2)
  double mean_utilization = 0.0;
  double max_utilization = 0.0;
  std::uint64_t requests = 0;     ///< requests dispatched so far
  std::uint64_t rejected = 0;     ///< rejections so far
  std::uint64_t cache_hits = 0;   ///< cumulative edge-cache hits (0 = no cache)
  std::uint64_t cache_misses = 0; ///< cumulative edge-cache misses
  std::vector<double> utilization;  ///< per-server l_j / B_j

  friend bool operator==(const TimeSample&, const TimeSample&) = default;
};

struct TimelineAnnotation {
  double time = 0.0;  ///< global simulated time
  std::string label;

  friend bool operator==(const TimelineAnnotation&,
                         const TimelineAnnotation&) = default;
};

class TimeseriesCollector {
 public:
  TimeseriesCollector(const TimeseriesConfig& config, std::size_t num_servers);
  TimeseriesCollector(const TimeseriesCollector&) = delete;
  TimeseriesCollector& operator=(const TimeseriesCollector&) = delete;

  /// Engine-local time of the next due sample.  The engine records exactly
  /// when its clock passes this (never between events — the signals are
  /// piecewise constant, so the sample at the boundary is exact).
  [[nodiscard]] double next_due() const noexcept {
    return next_due_global_ - offset_;
  }

  /// Stores one sample at engine-local time next_due() and advances the
  /// schedule; compacts (drop every second sample, double the interval)
  /// when the buffer is full.  `utilization` must have num_servers entries.
  /// The trailing cache counters are cumulative (like requests/rejected) and
  /// default to zero so cache-less recorders need not mention them.
  void record(double eq2, double mean_util, double max_util,
              std::uint64_t requests, std::uint64_t rejected,
              const std::vector<double>& utilization,
              std::uint64_t cache_hits = 0, std::uint64_t cache_misses = 0);

  /// Appends an annotation at *global* time (bounded; dropped-and-counted
  /// beyond kTimelineMaxAnnotations).
  void annotate(double global_time, std::string label);

  /// Sharded-merge support (src/sim/sharded_engine.h): fills this *fresh*
  /// collector (size 0, factor 1, zero offset, same config as the shards)
  /// with the elementwise merge of per-shard collectors recorded on
  /// identical grids.  Because every shard records the same number of
  /// samples on the same schedule and compaction is a pure function of the
  /// record sequence, the shards' retained grids coincide — and match what
  /// a monolithic run would have retained.  Per sample: counters and the
  /// per-server utilizations sum (foreign servers contribute exact zeros),
  /// max is the max of maxes, mean is the sum of means, and the imbalance
  /// is imbalance_eq2 of the merged max and mean.
  void merge_shards(const std::vector<const TimeseriesCollector*>& shards);

  /// Shifts subsequent record() calls by `offset` (epoch concatenation).
  void set_time_offset(double offset) noexcept { offset_ = offset; }
  [[nodiscard]] double time_offset() const noexcept { return offset_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const TimeSample& sample(std::size_t i) const {
    return samples_[i];
  }
  /// Copy of the recorded samples.
  [[nodiscard]] std::vector<TimeSample> samples() const;
  [[nodiscard]] const std::vector<TimelineAnnotation>& annotations() const {
    return annotations_;
  }

  /// Current interval after any compactions (initial interval × factor).
  [[nodiscard]] double interval_sec() const noexcept { return interval_sec_; }
  [[nodiscard]] std::uint64_t downsample_factor() const noexcept {
    return downsample_factor_;
  }
  [[nodiscard]] std::uint64_t annotations_dropped() const noexcept {
    return annotations_dropped_;
  }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }

  /// Columnar export: {"interval_sec":..,"downsample_factor":..,
  /// "num_samples":..,"time":[..],"imbalance_eq2":[..],
  /// "mean_utilization":[..],"max_utilization":[..],"requests":[..],
  /// "rejected":[..],"cache_hits":[..],"cache_misses":[..],
  /// "utilization_per_server":[[server 0 series],...]}.
  [[nodiscard]] JsonValue to_json() const;
  /// [{"t":..,"label":".."},...] plus nothing else; pair with to_json().
  [[nodiscard]] JsonValue annotations_json() const;

 private:
  void compact();

  std::size_t num_servers_ = 0;
  double interval_sec_ = 0.0;
  double offset_ = 0.0;
  double next_due_global_ = 0.0;
  std::uint64_t downsample_factor_ = 1;
  std::uint64_t annotations_dropped_ = 0;
  std::size_t size_ = 0;
  std::vector<TimeSample> samples_;  ///< pre-sized slots; size_ are live
  std::vector<TimelineAnnotation> annotations_;
};

}  // namespace vodrep::obs
