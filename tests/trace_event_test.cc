#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/json_lite.h"

namespace vodrep::obs {
namespace {

/// Busy-waits so a span's duration strictly exceeds the clock resolution.
void spin_ns(std::uint64_t ns) {
  const std::uint64_t until = steady_now_ns() + ns;
  while (steady_now_ns() < until) {
  }
}

/// The recorder under test is the global one (ScopedTimer hard-wires it),
/// so every test starts from a cleared, enabled recorder and leaves it
/// disabled and empty.
class TraceEventTest : public ::testing::Test {
 protected:
  void SetUp() override {
    recorder().set_enabled(false);
    recorder().clear();
  }
  void TearDown() override {
    recorder().set_enabled(false);
    recorder().clear();
  }
  static TraceRecorder& recorder() { return TraceRecorder::global(); }
};

TEST_F(TraceEventTest, SpansNestWithMonotonicTimestamps) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("outer");
    spin_ns(2'000);
    {
      VODREP_TRACE_SCOPE("inner_a");
      spin_ns(2'000);
    }
    {
      VODREP_TRACE_SCOPE("inner_b");
      spin_ns(2'000);
    }
    spin_ns(2'000);
  }
  // events() merges lanes sorted by start timestamp, so the outer span
  // (opened first) comes first even though it is *recorded* last, at
  // destruction.
  const std::vector<TraceEvent> events = recorder().events();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent& outer = events[0];
  const TraceEvent& inner_a = events[1];
  const TraceEvent& inner_b = events[2];
  EXPECT_STREQ(inner_a.name, "inner_a");
  EXPECT_STREQ(inner_b.name, "inner_b");
  EXPECT_STREQ(outer.name, "outer");

  // Monotonic starts: outer opened first, inner_a before inner_b.
  EXPECT_LE(outer.ts_ns, inner_a.ts_ns);
  EXPECT_LE(inner_a.ts_ns + inner_a.dur_ns, inner_b.ts_ns);

  // Nesting: both children lie inside the outer span, and the outer
  // duration covers at least the sum of its children.
  EXPECT_GE(inner_a.ts_ns, outer.ts_ns);
  EXPECT_LE(inner_b.ts_ns + inner_b.dur_ns, outer.ts_ns + outer.dur_ns);
  EXPECT_GE(outer.dur_ns, inner_a.dur_ns + inner_b.dur_ns);

  // Each span carries its depth on the thread and its thread-CPU time.
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner_a.depth, 1u);
  EXPECT_EQ(inner_b.depth, 1u);
  EXPECT_GE(outer.cpu_ns, inner_a.cpu_ns + inner_b.cpu_ns);
}

TEST_F(TraceEventTest, JsonParsesAndRoundTrips) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("span_one");
    spin_ns(1'500);
  }
  {
    VODREP_TRACE_SCOPE("span_two");
    spin_ns(1'500);
  }
  const std::string json = recorder().to_json();
  const JsonValue root = parse_json(json);
  const JsonValue& trace_events = root.at("traceEvents");
  ASSERT_EQ(trace_events.size(), 2u);
  for (const JsonValue& event : trace_events.items()) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_EQ(event.at("pid").as_int(), 1);
    EXPECT_GE(event.at("tid").as_int(), 0);
    EXPECT_GT(event.at("dur").as_number(), 0.0);  // spun >= 1.5 us
    EXPECT_GE(event.at("ts").as_number(), 0.0);
  }
  EXPECT_EQ(trace_events.items()[0].at("name").as_string(), "span_one");
  EXPECT_EQ(trace_events.items()[1].at("name").as_string(), "span_two");
  EXPECT_EQ(root.at("otherData").at("recorded").as_uint(), 2u);

  // Round trip: parse(dump(parse(json))) is structurally identical.
  const JsonValue reparsed = parse_json(root.dump());
  EXPECT_EQ(root, reparsed);
}

TEST_F(TraceEventTest, DisabledRecorderDoesNoWorkAndNeverAllocates) {
  ASSERT_FALSE(recorder().enabled());
  for (int i = 0; i < 10'000; ++i) {
    VODREP_TRACE_SCOPE("dead");
  }
  EXPECT_EQ(recorder().events_recorded(), 0u);
  EXPECT_EQ(recorder().events_dropped(), 0u);
  EXPECT_TRUE(recorder().events().empty());
}

TEST_F(TraceEventTest, EnabledRecorderStaysWithinItsReservedCapacity) {
  recorder().set_enabled(true, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    VODREP_TRACE_SCOPE("bounded");
  }
  EXPECT_EQ(recorder().events_recorded(), 4u);
  EXPECT_EQ(recorder().events_dropped(), 6u);
  EXPECT_EQ(recorder().events().size(), 4u);
}

TEST_F(TraceEventTest, DisablingMidSpanDropsTheInFlightSpan) {
  recorder().set_enabled(true);
  {
    ScopedTimer timer("armed_then_disabled");
    recorder().set_enabled(false);
    // Disabling stops recording immediately: the armed span's closing
    // record is refused, so a consumer that disables before export never
    // sees half-open activity from threads still inside spans.
  }
  EXPECT_EQ(recorder().events_recorded(), 0u);

  // Events buffered *before* the disable do survive for export.
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("kept");
  }
  recorder().set_enabled(false);
  EXPECT_EQ(recorder().events_recorded(), 1u);
  EXPECT_EQ(recorder().events().size(), 1u);
}

TEST_F(TraceEventTest, MergedEventsAreSortedByTimestampThenTid) {
  recorder().set_enabled(true);
  // Record out of timestamp order within one lane; the merge must not care.
  recorder().record_complete("late", /*ts_ns=*/300, /*dur_ns=*/1, 0, 0);
  recorder().record_complete("early", /*ts_ns=*/100, /*dur_ns=*/1, 0, 0);
  recorder().record_complete("mid", /*ts_ns=*/200, /*dur_ns=*/1, 0, 0);
  recorder().record_complete("mid_again", /*ts_ns=*/200, /*dur_ns=*/2, 0, 0);
  const std::vector<TraceEvent> events = recorder().events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "mid_again");  // equal ts: recorded order kept
  EXPECT_STREQ(events[3].name, "late");
}

TEST_F(TraceEventTest, ClearResetsEventsAndInstrumentCounters) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("gone");
  }
  ASSERT_EQ(recorder().events_recorded(), 1u);
  recorder().clear();
  EXPECT_EQ(recorder().events_recorded(), 0u);
  EXPECT_EQ(recorder().events_dropped(), 0u);
  EXPECT_TRUE(recorder().events().empty());
  const JsonValue root = parse_json(recorder().to_json());
  EXPECT_EQ(root.at("traceEvents").size(), 0u);
}

/// Concurrency suite (runs under the tsan preset): per-thread lanes must
/// accept parallel recording without locks and merge deterministically.
class TraceRecorderThreadsTest : public TraceEventTest {};

TEST_F(TraceRecorderThreadsTest, ConcurrentRecordingMergesAllPublishedEvents) {
  recorder().set_enabled(true, /*capacity=*/4096);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kEventsPerThread = 1000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kEventsPerThread; ++i) {
        VODREP_TRACE_SCOPE("worker_span");
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Reads race with the writers on purpose: a merge must only ever see
  // fully published events (never a half-written slot).
  for (int i = 0; i < 50; ++i) {
    for (const TraceEvent& event : recorder().events()) {
      ASSERT_NE(event.name, nullptr);
      ASSERT_EQ(std::string(event.name), "worker_span");
    }
  }
  for (std::thread& thread : threads) thread.join();
  recorder().set_enabled(false);

  EXPECT_EQ(recorder().events_recorded(), kThreads * kEventsPerThread);
  EXPECT_EQ(recorder().events_dropped(), 0u);
  const std::vector<TraceEvent> events = recorder().events();
  ASSERT_EQ(events.size(), kThreads * kEventsPerThread);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const bool ordered =
        events[i - 1].ts_ns < events[i].ts_ns ||
        (events[i - 1].ts_ns == events[i].ts_ns &&
         events[i - 1].tid <= events[i].tid);
    ASSERT_TRUE(ordered) << "merge not sorted by (ts, tid) at " << i;
  }
  // The merge is a pure function of the recorded spans: exporting twice
  // yields the identical sequence.
  const std::vector<TraceEvent> again = recorder().events();
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].name, events[i].name);
    EXPECT_EQ(again[i].ts_ns, events[i].ts_ns);
    EXPECT_EQ(again[i].dur_ns, events[i].dur_ns);
    EXPECT_EQ(again[i].tid, events[i].tid);
  }
}

TEST_F(TraceRecorderThreadsTest, LaneOverflowDropsAndCountsPerThread) {
  recorder().set_enabled(true, /*capacity=*/8);
  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kEventsPerThread = 20;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kEventsPerThread; ++i) {
        VODREP_TRACE_SCOPE("overflow");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder().set_enabled(false);
  // Each lane holds its own 8; the rest drop.
  EXPECT_EQ(recorder().events_recorded(), kThreads * 8u);
  EXPECT_EQ(recorder().events_dropped(), kThreads * (kEventsPerThread - 8u));
  EXPECT_EQ(recorder().events().size(), kThreads * 8u);
}

}  // namespace
}  // namespace vodrep::obs
