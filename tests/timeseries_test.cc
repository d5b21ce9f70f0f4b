// TimeseriesCollector: the bounded fixed-interval sampler behind the run
// reports.  The load-bearing properties are determinism (the same record
// sequence yields a bit-identical series, compactions included), the
// uniform-grid invariant across compactions (keep every second sample,
// double the interval — survivors stay on a uniform grid starting at 0),
// and bounded annotation storage with drop accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace vodrep::obs {
namespace {

/// Feeds `n` synthetic samples whose payloads encode the record index, so a
/// surviving sample identifies which record it came from.
void feed(TimeseriesCollector& collector, std::size_t n,
          std::size_t num_servers) {
  std::vector<double> util(num_servers);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<double>(i);
    for (std::size_t s = 0; s < num_servers; ++s) {
      util[s] = x + static_cast<double>(s) / 100.0;
    }
    collector.record(/*eq2=*/x, /*mean_util=*/x / 2.0, /*max_util=*/x, i,
                     i / 3, util);
  }
}

TEST(TimeseriesConfigTest, RejectsInvalidConfigs) {
  EXPECT_THROW(TimeseriesConfig{0.0}.validate(), InvalidArgumentError);
  EXPECT_THROW(TimeseriesConfig{-1.0}.validate(), InvalidArgumentError);
  EXPECT_NO_THROW(TimeseriesConfig{1.0}.validate());
}

TEST(TimeseriesTest, RecordsOnAUniformGridStartingAtZero) {
  TimeseriesCollector collector(TimeseriesConfig{2.5}, 2);
  EXPECT_DOUBLE_EQ(collector.next_due(), 0.0);
  feed(collector, 4, 2);
  ASSERT_EQ(collector.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(collector.sample(i).time, 2.5 * static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(collector.next_due(), 10.0);
  EXPECT_EQ(collector.downsample_factor(), 1u);
  EXPECT_DOUBLE_EQ(collector.interval_sec(), 2.5);
}

TEST(TimeseriesTest, CompactionKeepsEvenIndicesAndDoublesInterval) {
  // interval 1, capacity C: records 0..2C-1 compact twice.  Records 0..C-1
  // fill the buffer at t = 0..C-1; record C compacts to the even times
  // 0..C-2 (interval 2) and appends at t = C; records up to 3C/2 - 1 append
  // every 2 s; record 3C/2 compacts to the times 0, 4, .., 2C-4 (interval 4)
  // and appends at t = 2C; the rest append every 4 s.  (C = 4: payloads 0,
  // 4, 6, 7 at times 0, 4, 8, 12.)
  constexpr std::size_t kCap = kTimelineMaxSamples;
  TimeseriesCollector collector(TimeseriesConfig{1.0}, 1);
  feed(collector, 2 * kCap, 1);
  ASSERT_EQ(collector.size(), kCap);
  EXPECT_EQ(collector.downsample_factor(), 4u);
  EXPECT_DOUBLE_EQ(collector.interval_sec(), 4.0);
  const auto cap = static_cast<double>(kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    const double t = 4.0 * static_cast<double>(i);
    const double payload = t < cap         ? t
                           : t < 2.0 * cap ? cap + (t - cap) / 2.0
                                           : 1.5 * cap + (t - 2.0 * cap) / 4.0;
    EXPECT_DOUBLE_EQ(collector.sample(i).time, t) << i;
    EXPECT_DOUBLE_EQ(collector.sample(i).imbalance_eq2, payload) << i;
  }
  // The grid stays uniform after compaction: consecutive surviving times
  // differ by exactly the (doubled) interval.
  for (std::size_t i = 1; i < collector.size(); ++i) {
    EXPECT_DOUBLE_EQ(collector.sample(i).time - collector.sample(i - 1).time,
                     collector.interval_sec())
        << i;
  }
}

TEST(TimeseriesTest, DownsamplingIsDeterministic) {
  // Two collectors driven the way the engine drives them — record only when
  // the next sample is due — must hold bit-identical samples through every
  // compaction.  After compaction the interval doubles, so the driver
  // records half as often; the final factor is the smallest power of two
  // that fits the horizon in the buffer.
  constexpr std::size_t kServers = 3;
  constexpr double kHorizon =
      64.0 * static_cast<double>(kTimelineMaxSamples - 1);
  TimeseriesCollector a(TimeseriesConfig{0.5}, kServers);
  TimeseriesCollector b(TimeseriesConfig{0.5}, kServers);
  Rng rng_a(0x75AA);
  Rng rng_b(0x75AA);
  std::vector<double> util(kServers);
  auto drive = [&](TimeseriesCollector& collector, Rng& rng) {
    std::uint64_t requests = 0;
    while (collector.next_due() <= kHorizon) {
      for (double& u : util) u = rng.uniform(0.0, 1.0);
      collector.record(rng.uniform(0.0, 5.0), rng.uniform(0.0, 1.0),
                       rng.uniform(0.0, 1.0), requests, requests / 7, util);
      ++requests;
    }
  };
  drive(a, rng_a);
  drive(b, rng_b);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.downsample_factor(), b.downsample_factor());
  EXPECT_DOUBLE_EQ(a.interval_sec(), b.interval_sec());
  EXPECT_EQ(a.samples(), b.samples());
  // 65409 fine-grid points (0.5 s over 32704 s) into 512 slots: the
  // interval doubles 0.5 -> 64 (factor 128), leaving a full buffer on the
  // 64 s grid.
  EXPECT_EQ(a.downsample_factor(), 128u);
  EXPECT_DOUBLE_EQ(a.interval_sec(), 64.0);
  ASSERT_EQ(a.size(), kTimelineMaxSamples);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sample(i).time,
                     64.0 * static_cast<double>(i));
  }
}

TEST(TimeseriesTest, TimeOffsetConcatenatesEpochs) {
  TimeseriesCollector collector(TimeseriesConfig{10.0}, 1);
  feed(collector, 2, 1);  // epoch 0: samples at global 0, 10
  EXPECT_DOUBLE_EQ(collector.next_due(), 20.0);
  collector.set_time_offset(100.0);
  // The schedule is global: with the offset applied the next sample is due
  // at engine-local 20 - 100... except next_due_global_ stays at 20, so the
  // engine-local due time is negative and any epoch-1 event triggers it.
  // The stored time remains the global one.
  EXPECT_DOUBLE_EQ(collector.next_due(), 20.0 - 100.0);
  EXPECT_DOUBLE_EQ(collector.time_offset(), 100.0);
  std::vector<double> util = {0.25};
  collector.record(1.0, 0.25, 0.25, 5, 0, util);
  ASSERT_EQ(collector.size(), 3u);
  EXPECT_DOUBLE_EQ(collector.sample(2).time, 20.0);
}

TEST(TimeseriesTest, AnnotationsAreBoundedWithDropAccounting) {
  TimeseriesCollector collector(TimeseriesConfig{1.0}, 1);
  for (std::size_t i = 0; i < kTimelineMaxAnnotations + 2; ++i) {
    collector.annotate(10.0 * static_cast<double>(i + 1),
                       i == 1 ? "replan_skipped" : "replan");
  }
  ASSERT_EQ(collector.annotations().size(), kTimelineMaxAnnotations);
  EXPECT_EQ(collector.annotations_dropped(), 2u);
  EXPECT_DOUBLE_EQ(collector.annotations()[0].time, 10.0);
  EXPECT_EQ(collector.annotations()[0].label, "replan");
  EXPECT_EQ(collector.annotations()[1].label, "replan_skipped");
  // The kept annotations are the first ones, in arrival order.
  EXPECT_DOUBLE_EQ(collector.annotations().back().time,
                   10.0 * static_cast<double>(kTimelineMaxAnnotations));
}

TEST(TimeseriesTest, JsonExportIsColumnarAndSized) {
  TimeseriesCollector collector(TimeseriesConfig{1.0}, 2);
  feed(collector, 5, 2);
  collector.annotate(3.0, "replan");
  const JsonValue json = collector.to_json();
  EXPECT_EQ(json.at("num_samples").as_uint(), 5u);
  EXPECT_EQ(json.at("downsample_factor").as_uint(), 1u);
  for (const char* key : {"time", "imbalance_eq2", "mean_utilization",
                          "max_utilization", "requests", "rejected"}) {
    EXPECT_EQ(json.at(key).size(), 5u) << key;
  }
  ASSERT_EQ(json.at("utilization_per_server").size(), 2u);
  for (const JsonValue& series : json.at("utilization_per_server").items()) {
    EXPECT_EQ(series.size(), 5u);
  }
  // Column values line up with the recorded samples.
  EXPECT_DOUBLE_EQ(json.at("time").items()[3].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(json.at("imbalance_eq2").items()[3].as_number(), 3.0);
  EXPECT_EQ(json.at("requests").items()[4].as_uint(), 4u);

  const JsonValue annotations = collector.annotations_json();
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_DOUBLE_EQ(annotations.items()[0].at("t").as_number(), 3.0);
  EXPECT_EQ(annotations.items()[0].at("label").as_string(), "replan");
}

}  // namespace
}  // namespace vodrep::obs
