#include "src/obs/profile.h"

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

/// Busy-waits until the calling thread has burned `ns` of CPU time and
/// returns the CPU time burned.  It spins on the thread CPU clock, not the
/// wall clock, so a descheduled thread keeps spinning instead of leaving a
/// phase with a wall time it never ran for; a wall-time cap of 100x `ns`
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

/// The profiler under test is the global one (VODREP_PROFILE_PHASE
/// hard-wires it); every test starts from a cleared, disabled profiler and
/// leaves it that way.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler().set_enabled(false);
    profiler().clear();
  }
  void TearDown() override {
    profiler().set_enabled(false);
    profiler().clear();
  }
  static RunProfiler& profiler() { return RunProfiler::global(); }

  static const PhaseStats* find(const std::vector<PhaseStats>& forest,
                                const std::string& name) {
    for (const PhaseStats& phase : forest) {
      if (phase.name == name) return &phase;
    }
    return nullptr;
  }
};

TEST_F(ProfileTest, NestedPhaseAccountingSumsToParent) {
  profiler().set_enabled(true);
  std::uint64_t burned_ns = 0;
  {
    VODREP_PROFILE_PHASE("outer");
    burned_ns += spin_cpu_ns(200'000);
    for (int i = 0; i < 3; ++i) {
      VODREP_PROFILE_PHASE("child_a");
      burned_ns += spin_cpu_ns(200'000);
    }
    {
      VODREP_PROFILE_PHASE("child_b");
      burned_ns += spin_cpu_ns(200'000);
    }
  }
  profiler().set_enabled(false);
  const ProfileSnapshot snap = profiler().snapshot();
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
  // Every spin ran inside the outer phase on this thread, so the phase's
  // thread-CPU time covers at least the CPU the spins burned.
  EXPECT_GE(outer->cpu_ns, burned_ns);
  EXPECT_GT(snap.max_rss_kb, 0u);
}

TEST_F(ProfileTest, CrossThreadMergeIsDeterministicAcrossRuns) {
  // Two identical multi-threaded runs must snapshot to the same forest
  // shape (names, counts, nesting), however the threads were scheduled.
  const auto run_once = [this] {
    profiler().clear();
    profiler().set_enabled(true);
    std::vector<std::thread> threads;
    threads.reserve(3);
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 5; ++i) {
          VODREP_PROFILE_PHASE("worker");
          VODREP_PROFILE_PHASE("step");
          spin_cpu_ns(1'000);
        }
      });
    }
    {
      VODREP_PROFILE_PHASE("main_phase");
      spin_cpu_ns(1'000);
    }
    for (std::thread& thread : threads) thread.join();
    profiler().set_enabled(false);
    return profiler().snapshot();
  };

  const ProfileSnapshot first = run_once();
  const ProfileSnapshot second = run_once();

  // Same shape both runs, with the three workers' trees merged into one
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
  ASSERT_FALSE(profiler().enabled());
  for (int i = 0; i < 10'000; ++i) {
    VODREP_PROFILE_PHASE("dead");
  }
  // No thread tree was ever registered: a disarmed ProfilePhase is one
  // relaxed load, no allocation, no clock read.
  EXPECT_EQ(profiler().threads_registered(), 0u);
  EXPECT_TRUE(profiler().snapshot().phases.empty());
}

TEST_F(ProfileTest, JsonExportIsVersionedAndRoundTrips) {
  profiler().set_enabled(true);
  {
    VODREP_PROFILE_PHASE("solve");
    {
      VODREP_PROFILE_PHASE("inner");
      spin_cpu_ns(1'000);
    }
  }
  profiler().set_enabled(false);
  const JsonValue root = profiler().to_json();
  EXPECT_EQ(root.at("profile_version").as_int(), RunProfiler::kProfileVersion);
  EXPECT_GE(root.at("max_rss_kb").as_uint(), 1u);
  EXPECT_TRUE(root.at("trace").has("recorded"));
  EXPECT_TRUE(root.at("trace").has("dropped"));
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

TEST_F(ProfileTest, ClearResetsTreesAndInvalidatesCachedRegistration) {
  profiler().set_enabled(true);
  {
    VODREP_PROFILE_PHASE("before_clear");
  }
  ASSERT_EQ(profiler().threads_registered(), 1u);
  profiler().clear();
  EXPECT_EQ(profiler().threads_registered(), 0u);
  EXPECT_TRUE(profiler().snapshot().phases.empty());
  // The thread re-registers transparently after clear().
  {
    VODREP_PROFILE_PHASE("after_clear");
  }
  profiler().set_enabled(false);
  const ProfileSnapshot snap = profiler().snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "after_clear");
}

}  // namespace
}  // namespace vodrep::obs
