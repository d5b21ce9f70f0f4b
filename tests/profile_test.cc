#include "src/obs/profile.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/json_lite.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"

namespace vodrep::obs {
namespace {

/// Busy-waits until the calling thread has burned `ns` of CPU time and
/// returns the CPU time burned.  It spins on the thread CPU clock, not the
/// wall clock, so a descheduled thread keeps spinning instead of leaving a
/// span with a wall time it never ran for; a wall-time cap of 100x `ns`
/// bounds the wait on an oversubscribed host.
std::uint64_t spin_cpu_ns(std::uint64_t ns) {
  const std::uint64_t cpu_start = thread_cpu_now_ns();
  const std::uint64_t wall_deadline = steady_now_ns() + 100 * ns;
  std::uint64_t burned = 0;
  while (burned < ns && steady_now_ns() < wall_deadline) {
    burned = thread_cpu_now_ns() - cpu_start;
  }
  return burned;
}

/// Busy-waits so neighbouring spans never share a clock reading.
void spin_wall_ns(std::uint64_t ns) {
  const std::uint64_t until = steady_now_ns() + ns;
  while (steady_now_ns() < until) {
  }
}

/// The profile is a view over the global recorder (VODREP_TRACE_SCOPE
/// hard-wires it); every test starts from a cleared, disabled recorder and
/// leaves it that way.
class ProfileTest : public ::testing::Test {
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
  static ProfileSnapshot profile() { return profile_snapshot(recorder()); }

  static const PhaseStats* find(const std::vector<PhaseStats>& forest,
                                const std::string& name) {
    for (const PhaseStats& phase : forest) {
      if (phase.name == name) return &phase;
    }
    return nullptr;
  }
};

TEST_F(ProfileTest, NestedPhaseAccountingSumsToParent) {
  recorder().set_enabled(true);
  std::uint64_t burned_ns = 0;
  {
    VODREP_TRACE_SCOPE("outer");
    burned_ns += spin_cpu_ns(200'000);
    for (int i = 0; i < 3; ++i) {
      VODREP_TRACE_SCOPE("child_a");
      burned_ns += spin_cpu_ns(200'000);
    }
    {
      VODREP_TRACE_SCOPE("child_b");
      burned_ns += spin_cpu_ns(200'000);
    }
  }
  recorder().set_enabled(false);
  const ProfileSnapshot snap = profile();
  ASSERT_EQ(snap.phases.size(), 1u);
  const PhaseStats* outer = find(snap.phases, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const PhaseStats* child_a = find(outer->children, "child_a");
  const PhaseStats* child_b = find(outer->children, "child_b");
  ASSERT_NE(child_a, nullptr);
  ASSERT_NE(child_b, nullptr);
  EXPECT_EQ(child_a->count, 3u);
  EXPECT_EQ(child_b->count, 1u);
  // A parent's wall time covers its children plus its own work: the sum of
  // child wall must never exceed the parent's.
  EXPECT_GE(outer->wall_ns, child_a->wall_ns + child_b->wall_ns);
  EXPECT_GT(child_a->wall_ns, 0u);
  // Every spin ran inside the outer span on this thread, so the span's
  // thread-CPU time covers at least the CPU the spins burned.
  EXPECT_GE(outer->cpu_ns, burned_ns);
  EXPECT_GT(snap.max_rss_kb, 0u);
}

TEST_F(ProfileTest, CrossThreadMergeIsDeterministicAcrossRuns) {
  // Two identical multi-threaded runs must snapshot to the same forest
  // shape (names, counts, nesting), however the threads were scheduled.
  const auto run_once = [] {
    recorder().clear();
    recorder().set_enabled(true);
    std::vector<std::thread> threads;
    threads.reserve(3);
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 5; ++i) {
          VODREP_TRACE_SCOPE("worker");
          VODREP_TRACE_SCOPE("step");
          spin_cpu_ns(1'000);
        }
      });
    }
    {
      VODREP_TRACE_SCOPE("main_phase");
      spin_cpu_ns(1'000);
    }
    for (std::thread& thread : threads) thread.join();
    recorder().set_enabled(false);
    return profile();
  };

  const ProfileSnapshot first = run_once();
  const ProfileSnapshot second = run_once();

  // Same shape both runs, with the three workers' spans merged into one
  // "worker" root (3 threads x 5 iterations).
  for (const ProfileSnapshot* snap : {&first, &second}) {
    ASSERT_EQ(snap->phases.size(), 2u);
    // Roots sorted by name: main_phase before worker.
    EXPECT_EQ(snap->phases[0].name, "main_phase");
    EXPECT_EQ(snap->phases[1].name, "worker");
    EXPECT_EQ(snap->phases[1].count, 15u);
    ASSERT_EQ(snap->phases[1].children.size(), 1u);
    EXPECT_EQ(snap->phases[1].children[0].name, "step");
    EXPECT_EQ(snap->phases[1].children[0].count, 15u);
    EXPECT_GE(snap->phases[1].wall_ns,
              snap->phases[1].children[0].wall_ns);
  }
}

TEST_F(ProfileTest, DisabledProfilerAllocatesNothing) {
  ASSERT_FALSE(recorder().enabled());
  for (int i = 0; i < 10'000; ++i) {
    VODREP_TRACE_SCOPE("dead");
  }
  // A disarmed span is one relaxed load: no record and no depth, so a span
  // armed inside a disarmed one is a root.
  EXPECT_EQ(recorder().events_recorded(), 0u);
  EXPECT_TRUE(profile().phases.empty());
  {
    VODREP_TRACE_SCOPE("disarmed_outer");
    recorder().set_enabled(true);
    VODREP_TRACE_SCOPE("armed_inner");
  }
  recorder().set_enabled(false);
  const std::vector<TraceEvent> events = recorder().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "armed_inner");
  EXPECT_EQ(events[0].depth, 0u);
}

TEST_F(ProfileTest, JsonExportIsVersionedAndRoundTrips) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("solve");
    {
      VODREP_TRACE_SCOPE("inner");
      spin_cpu_ns(1'000);
    }
  }
  recorder().set_enabled(false);
  const JsonValue root = profile_json(recorder());
  EXPECT_EQ(root.at("profile_version").as_int(), kRunProfileVersion);
  EXPECT_GE(root.at("max_rss_kb").as_uint(), 1u);
  EXPECT_EQ(root.at("trace").at("recorded").as_uint(), 2u);
  EXPECT_EQ(root.at("trace").at("dropped").as_uint(), 0u);
  ASSERT_EQ(root.at("phases").size(), 1u);
  const JsonValue& solve = root.at("phases").items()[0];
  EXPECT_EQ(solve.at("name").as_string(), "solve");
  EXPECT_EQ(solve.at("count").as_uint(), 1u);
  ASSERT_EQ(solve.at("children").size(), 1u);
  EXPECT_EQ(solve.at("children").items()[0].at("name").as_string(), "inner");
  // Value-exact round trip through the json_lite writer/parser.
  const JsonValue reparsed = parse_json(root.dump());
  EXPECT_EQ(root, reparsed);
}

TEST_F(ProfileTest, ClearResetsTheProfile) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("before_clear");
  }
  recorder().set_enabled(false);
  ASSERT_EQ(profile().phases.size(), 1u);
  recorder().clear();
  EXPECT_TRUE(profile().phases.empty());
  // Recording resumes from a fresh lane after clear().
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("after_clear");
  }
  recorder().set_enabled(false);
  const ProfileSnapshot snap = profile();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "after_clear");
}

// The two ways a span's parent goes missing: the lane filled up before the
// parent closed (spans record at destruction, so children land first), or
// recording was disabled while the parent was open.  Either way the orphan
// becomes a root; in particular it must not be hung under the sibling that
// closed just before its parent opened.
TEST_F(ProfileTest, SpanWhoseParentOverflowedTheLaneBecomesARoot) {
  recorder().set_enabled(true, /*capacity=*/2);
  {
    VODREP_TRACE_SCOPE("sibling");
    spin_wall_ns(2'000);
  }
  spin_wall_ns(2'000);
  {
    VODREP_TRACE_SCOPE("parent");  // third record: dropped
    spin_wall_ns(2'000);
    {
      VODREP_TRACE_SCOPE("orphan");
      spin_wall_ns(2'000);
    }
    spin_wall_ns(2'000);
  }
  recorder().set_enabled(false);
  ASSERT_EQ(recorder().events_dropped(), 1u);
  const ProfileSnapshot snap = profile();
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].name, "orphan");
  EXPECT_EQ(snap.phases[1].name, "sibling");
  EXPECT_TRUE(snap.phases[0].children.empty());
  EXPECT_TRUE(snap.phases[1].children.empty());
  EXPECT_EQ(profile_json(recorder()).at("trace").at("dropped").as_uint(), 1u);
}

TEST_F(ProfileTest, SpanWhoseParentWasDisabledMidSpanBecomesARoot) {
  recorder().set_enabled(true);
  {
    VODREP_TRACE_SCOPE("sibling");
    spin_wall_ns(2'000);
  }
  spin_wall_ns(2'000);
  {
    VODREP_TRACE_SCOPE("parent");
    spin_wall_ns(2'000);
    {
      VODREP_TRACE_SCOPE("orphan");
      spin_wall_ns(2'000);
    }
    recorder().set_enabled(false);  // the parent's closing record is refused
  }
  // A later span at the parent's depth must not adopt the orphan either.
  recorder().set_enabled(true);
  spin_wall_ns(2'000);
  {
    VODREP_TRACE_SCOPE("later");
    spin_wall_ns(2'000);
  }
  recorder().set_enabled(false);
  ASSERT_EQ(recorder().events_recorded(), 3u);
  const ProfileSnapshot snap = profile();
  ASSERT_EQ(snap.phases.size(), 3u);
  EXPECT_EQ(snap.phases[0].name, "later");
  EXPECT_EQ(snap.phases[1].name, "orphan");
  EXPECT_EQ(snap.phases[2].name, "sibling");
  for (const PhaseStats& phase : snap.phases) {
    EXPECT_TRUE(phase.children.empty()) << phase.name;
  }
}

/// Per-name span totals of a forest.
void count_names(const std::vector<PhaseStats>& forest,
                 std::map<std::string, std::uint64_t>& counts) {
  for (const PhaseStats& phase : forest) {
    counts[phase.name] += phase.count;
    count_names(phase.children, counts);
  }
}

TEST_F(ProfileTest, ChromeJsonAndProfileCountTheSameSpans) {
  recorder().set_enabled(true);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 40 + 10 * t; ++i) {
        {
          VODREP_TRACE_SCOPE("task");
          for (int j = 0; j < 3; ++j) {
            VODREP_TRACE_SCOPE("step");
          }
        }
        if (i % 4 == 0) {
          VODREP_TRACE_SCOPE("step");  // same name, root path
        }
      }
    });
  }
  {
    VODREP_TRACE_SCOPE("main");
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
  }
  recorder().set_enabled(false);

  const JsonValue chrome = parse_json(recorder().to_json());
  std::map<std::string, std::uint64_t> from_json;
  for (const JsonValue& event : chrome.at("traceEvents").items()) {
    from_json[event.at("name").as_string()] += 1;
  }
  std::map<std::string, std::uint64_t> from_profile;
  count_names(profile().phases, from_profile);
  EXPECT_EQ(from_json, from_profile);
  EXPECT_EQ(from_profile["task"], 40u + 50u + 60u);
  EXPECT_EQ(from_profile["step"], 3u * 150u + 10u + 13u + 15u);
  EXPECT_EQ(from_profile["main"], 1u);
}

}  // namespace
}  // namespace vodrep::obs
