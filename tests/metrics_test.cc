#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/obs/json_lite.h"
#include "src/util/error.h"

namespace vodrep::obs {
namespace {

TEST(MetricsTest, CounterFoldsConcurrentIncrementsExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIncrementsPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncrementsPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrementsPerThread);
}

TEST(MetricsTest, CounterAddAccumulates) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("bytes");
  counter.add(3);
  counter.add(0);
  counter.add(39);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(MetricsTest, GaugeSetAddAndHighWater) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.set_max(1.0);  // below: no change
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.set_max(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(MetricsTest, ReRegisteringReturnsTheSameInstrument) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("same");
  c1.add(5);
  Counter& c2 = registry.counter("same");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 5u);
  Gauge& g1 = registry.gauge("g");
  EXPECT_EQ(&g1, &registry.gauge("g"));
}

TEST(MetricsTest, NameKindClashesThrow) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), InvalidArgumentError);
  registry.gauge("g");
  EXPECT_THROW(registry.counter("g"), InvalidArgumentError);
}

TEST(MetricsTest, SnapshotIsADeepQuiescentCopy) {
  MetricsRegistry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(0.25);
  const MetricsSnapshot snap = registry.snapshot();
  registry.counter("c").add(100);  // must not affect the snapshot
  registry.gauge("g").set(0.5);
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.25);
}

TEST(MetricsTest, JsonExportParsesAndMatchesTheSnapshot) {
  MetricsRegistry registry;
  registry.counter("requests").add(909);
  registry.gauge("util").set(0.249512);

  const JsonValue root = parse_json(registry.to_json());
  // Exactly the two instrument kinds, in a fixed order.
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(root.members()[0].first, "counters");
  EXPECT_EQ(root.members()[1].first, "gauges");
  EXPECT_EQ(root.at("counters").at("requests").as_uint(), 909u);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("util").as_number(), 0.249512);
}

TEST(MetricsTest, ClearDropsAllInstruments) {
  MetricsRegistry registry;
  registry.counter("c").add(1);
  registry.clear();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  // Re-registration after clear starts a fresh instrument.
  EXPECT_EQ(registry.counter("c").value(), 0u);
}

TEST(MetricsTest, GlobalEnableSwitchDefaultsOffAndToggles) {
  // The suite may run after another fixture flipped it; restore either way.
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
}

}  // namespace
}  // namespace vodrep::obs
