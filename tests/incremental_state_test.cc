#include "src/core/incremental_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

ScalableProblem test_problem(ImbalanceDefinition definition =
                                 ImbalanceDefinition::kMaxRelative) {
  ScalableProblem p;
  p.videos.duration_sec = units::minutes(90);
  p.videos.popularity = zipf_popularity(40, 0.75);
  p.cluster.num_servers = 6;
  p.cluster.bandwidth_bps_per_server = units::gbps(0.5);
  p.cluster.storage_bytes_per_server = units::gigabytes(200.0);
  p.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(4),
                        units::mbps(8)};
  p.expected_peak_requests = 800.0;
  p.weights.imbalance_definition = definition;
  return p;
}

/// Mixed absolute/relative agreement at the 1e-9 contract of the
/// incremental-evaluation layer.
void expect_close(double actual, double expected, const char* what) {
  const double tolerance =
      1e-9 * std::max({1.0, std::abs(actual), std::abs(expected)});
  EXPECT_NEAR(actual, expected, tolerance) << what;
}

/// The correctness contract: every running quantity of the incremental state
/// must agree with a from-scratch compute_usage + objective_value evaluation
/// of the solution it carries.
void verify_against_recompute(const ScalableProblem& problem,
                              const IncrementalState& inc) {
  const ScalableSolution solution = inc.to_solution();
  const ServerUsage usage = compute_usage(problem, solution);
  for (std::size_t s = 0; s < problem.cluster.num_servers; ++s) {
    expect_close(inc.storage_bytes()[s], usage.storage_bytes[s], "storage");
    expect_close(inc.bandwidth_bps()[s], usage.bandwidth_bps[s], "bandwidth");
  }
  const double expected_objective = objective_value(
      solution.bitrates(problem.ladder), solution.replicas(),
      usage.bandwidth_bps, problem.cluster.num_servers, problem.weights);
  expect_close(inc.objective(), expected_objective, "objective");

  double expected_overflow = 0.0;
  const double cap = problem.cluster.bandwidth_bps_per_server;
  for (double load : usage.bandwidth_bps) {
    if (load > cap) expected_overflow += (load - cap) / cap;
  }
  expect_close(inc.relative_bandwidth_overflow(), expected_overflow,
               "overflow");
  expect_close(inc.max_bandwidth_bps(),
               *std::max_element(usage.bandwidth_bps.begin(),
                                 usage.bandwidth_bps.end()),
               "max load");
}

/// Reverse index and solution placement must describe the same hosting
/// relation.  O(M*N) — sampled sparsely inside the big property loop.
void verify_hosting_index(const ScalableProblem& problem,
                          const IncrementalState& inc) {
  const ScalableSolution solution = inc.to_solution();
  for (std::size_t i = 0; i < solution.num_videos(); ++i) {
    for (std::size_t s = 0; s < problem.cluster.num_servers; ++s) {
      const auto& servers = solution.placement[i];
      const bool placed =
          std::find(servers.begin(), servers.end(), s) != servers.end();
      ASSERT_EQ(inc.is_hosted(i, s), placed) << "video " << i << " server " << s;
      const auto& hosted = inc.videos_on(s);
      ASSERT_EQ(std::find(hosted.begin(), hosted.end(), i) != hosted.end(),
                placed);
    }
  }
}

/// The position-set queries against scans of videos_on(), on every server:
/// both counts, every k-th pick and the cheapest sheddable video.
void verify_position_sets(const IncrementalState& inc) {
  const std::size_t top = inc.problem().ladder.size() - 1;
  for (std::size_t s = 0; s < inc.problem().cluster.num_servers; ++s) {
    std::vector<std::uint32_t> below_top;
    std::vector<std::uint32_t> sheddable;
    std::uint32_t cheapest = IncrementalState::kNoVideo;
    for (const std::uint32_t v : inc.videos_on(s)) {
      const std::size_t slot = inc.bitrate_index(v);
      if (slot < top) below_top.push_back(v);
      if (slot == 0 && inc.replica_count(v) == 1) continue;
      sheddable.push_back(v);
      if (cheapest == IncrementalState::kNoVideo ||
          slot < inc.bitrate_index(cheapest) ||
          (slot == inc.bitrate_index(cheapest) && v > cheapest)) {
        cheapest = v;
      }
    }
    ASSERT_EQ(inc.count_below_top(s), below_top.size()) << "server " << s;
    for (std::size_t k = 0; k < below_top.size(); ++k) {
      ASSERT_EQ(inc.below_top_at(s, k), below_top[k])
          << "server " << s << " k " << k;
    }
    ASSERT_EQ(inc.count_sheddable(s), sheddable.size()) << "server " << s;
    for (std::size_t k = 0; k < sheddable.size(); ++k) {
      ASSERT_EQ(inc.sheddable_at(s, k), sheddable[k])
          << "server " << s << " k " << k;
    }
    ASSERT_EQ(inc.cheapest_sheddable(s), cheapest) << "server " << s;
  }
}

/// Applies one random legal primitive mutation to `video`; returns false if
/// the drawn op had no legal target this time.
bool random_mutation(const ScalableProblem& problem, IncrementalState& inc,
                     Rng& rng, std::size_t video) {
  const std::size_t n = problem.cluster.num_servers;
  switch (rng.uniform_index(3)) {
    case 0: {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_index(problem.ladder.size()));
      inc.set_bitrate(video, idx);
      return true;
    }
    case 1: {
      std::vector<std::size_t> absent;
      for (std::size_t s = 0; s < n; ++s) {
        if (!inc.is_hosted(video, s)) absent.push_back(s);
      }
      if (absent.empty()) return false;
      inc.add_replica(video, absent[rng.uniform_index(absent.size())]);
      return true;
    }
    default: {
      const auto servers = inc.replicas_of(video);
      if (servers.size() < 2) return false;
      inc.drop_replica(video, servers[rng.uniform_index(servers.size())]);
      return true;
    }
  }
}

/// random_mutation of a uniformly drawn video.
bool random_mutation(const ScalableProblem& problem, IncrementalState& inc,
                     Rng& rng) {
  const auto video =
      static_cast<std::size_t>(rng.uniform_index(problem.videos.count()));
  return random_mutation(problem, inc, rng, video);
}

std::vector<std::vector<std::size_t>> sorted_placement(
    const ScalableSolution& solution) {
  std::vector<std::vector<std::size_t>> placement = solution.placement;
  for (auto& servers : placement) std::sort(servers.begin(), servers.end());
  return placement;
}

TEST(IncrementalState, FreshStateMatchesRecompute) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  verify_against_recompute(p, inc);
  verify_hosting_index(p, inc);
}

// The tentpole's acceptance contract: >= 10k random apply/commit/rollback
// sequences, each checked against the from-scratch evaluation to 1e-9.
TEST(IncrementalState, RandomMoveUndoSequencesAgreeWithFromScratch) {
  for (const auto definition : {ImbalanceDefinition::kMaxRelative,
                                ImbalanceDefinition::kCoefficientOfVariation}) {
    const ScalableProblem p = test_problem(definition);
    IncrementalState inc(p, lowest_rate_round_robin(p));
    Rng rng(definition == ImbalanceDefinition::kMaxRelative ? 7u : 8u);
    for (int sequence = 0; sequence < 5'000; ++sequence) {
      const auto mark = inc.checkpoint();
      const auto ops = 1 + rng.uniform_index(5);
      for (std::size_t op = 0; op < ops; ++op) {
        (void)random_mutation(p, inc, rng);
      }
      if (rng.bernoulli(0.5)) {
        inc.rollback(mark);
      } else {
        inc.commit();
      }
      verify_against_recompute(p, inc);
      if (sequence % 64 == 0) verify_hosting_index(p, inc);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalState, RollbackRestoresTheSolution) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    const ScalableSolution before = inc.to_solution();
    const auto placement = sorted_placement(before);
    const auto mark = inc.checkpoint();
    const auto ops = 1 + rng.uniform_index(6);
    for (std::size_t op = 0; op < ops; ++op) {
      (void)random_mutation(p, inc, rng);
    }
    inc.rollback(mark);
    const ScalableSolution after = inc.to_solution();
    EXPECT_EQ(after.bitrate_index, before.bitrate_index);
    EXPECT_EQ(sorted_placement(after), placement);
  }
  verify_against_recompute(p, inc);
}

// solution_at(mark) is the rollback-then-materialize of a copy, replica
// order included (six servers cross the four-entry inline strip), and
// leaves the state and its journal untouched.
TEST(IncrementalState, SolutionAtMatchesACopyRolledBack) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  Rng rng(22);
  for (int round = 0; round < 300; ++round) {
    const auto mark = inc.checkpoint();
    const auto ops = 1 + rng.uniform_index(40);
    for (std::size_t op = 0; op < ops; ++op) {
      (void)random_mutation(p, inc, rng);
    }
    const auto end = inc.checkpoint();
    const ScalableSolution current = inc.to_solution();
    IncrementalState copy = inc;
    copy.rollback(mark);
    const ScalableSolution expected = copy.to_solution();
    const ScalableSolution at_mark = inc.solution_at(mark);
    EXPECT_EQ(at_mark.bitrate_index, expected.bitrate_index);
    EXPECT_EQ(at_mark.placement, expected.placement);
    EXPECT_EQ(inc.checkpoint(), end);
    EXPECT_EQ(inc.to_solution().placement, current.placement);
    if (rng.bernoulli(0.3)) inc.commit();
    if (HasFailure()) return;
  }
  EXPECT_THROW((void)inc.solution_at(inc.checkpoint() + 1),
               InvalidArgumentError);
}

TEST(IncrementalState, LazyMaxSurvivesLoweringTheMaxServer) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  // Make server 0 the clear maximum, then shrink it below the rest: the
  // lazy max must fall back to a re-scan, not keep reporting server 0.
  inc.add_replica(1, 0);  // video 1 is hot; hosting it loads server 0
  inc.set_bitrate(0, p.ladder.size() - 1);
  verify_against_recompute(p, inc);
  const double loaded_max = inc.max_bandwidth_bps();
  inc.set_bitrate(0, 0);
  inc.drop_replica(1, 0);
  EXPECT_LT(inc.max_bandwidth_bps(), loaded_max);
  verify_against_recompute(p, inc);
}

TEST(IncrementalState, TracksBandwidthOverflowAcrossExcursions) {
  ScalableProblem p = test_problem();
  p.expected_peak_requests = 4e5;  // deliberately saturating
  IncrementalState inc(p, lowest_rate_round_robin(p));
  Rng rng(31);
  bool saw_overflow = false;
  for (int round = 0; round < 500; ++round) {
    (void)random_mutation(p, inc, rng);
    inc.commit();
    saw_overflow |= inc.relative_bandwidth_overflow() > 0.0;
  }
  EXPECT_TRUE(saw_overflow);
  verify_against_recompute(p, inc);
}

TEST(IncrementalState, RejectsIllegalMutations) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  EXPECT_THROW(inc.drop_replica(0, inc.replicas_of(0)[0]),
               InvalidArgumentError);  // would drop the last replica
  EXPECT_THROW(inc.add_replica(0, inc.replicas_of(0)[0]),
               InvalidArgumentError);  // duplicate replica
  EXPECT_THROW(inc.set_bitrate(0, p.ladder.size()), InvalidArgumentError);
  EXPECT_THROW(inc.add_replica(p.videos.count(), 0), InvalidArgumentError);
  const std::size_t host = inc.replicas_of(1)[0];
  const std::size_t other = (host + 1) % p.cluster.num_servers;
  EXPECT_THROW(inc.drop_replica(1, other), InvalidArgumentError);
}

TEST(IncrementalState, EmptiedServerReportsExactlyZeroUsage) {
  const ScalableProblem p = test_problem();
  ScalableSolution solution = lowest_rate_round_robin(p);
  IncrementalState inc(p, std::move(solution));
  // Give every video on server 0 a second home, then clear server 0.
  const std::vector<std::uint32_t> hosted = inc.videos_on(0);
  for (std::size_t video : hosted) {
    for (std::size_t s = 1; s < p.cluster.num_servers; ++s) {
      if (!inc.is_hosted(video, s)) {
        inc.add_replica(video, s);
        break;
      }
    }
    inc.drop_replica(video, 0);
  }
  EXPECT_TRUE(inc.videos_on(0).empty());
  EXPECT_EQ(inc.storage_bytes()[0], 0.0);
  EXPECT_EQ(inc.bandwidth_bps()[0], 0.0);
  EXPECT_EQ(inc.count_below_top(0), 0u);
  EXPECT_EQ(inc.count_sheddable(0), 0u);
  EXPECT_EQ(inc.cheapest_sheddable(0), IncrementalState::kNoVideo);
  verify_against_recompute(p, inc);
  verify_position_sets(inc);
}

// The position sets agree with scans of videos_on() after each of 10k random
// set_bitrate, add, drop, checkpoint, rollback and commit operations.  The
// servers host about 133 videos each (three 64-position blocks), and half
// the mutations hit eight hot videos, whose replica sets cross the inline
// strip both ways.
TEST(IncrementalState, PositionSetsMatchHostedListScans) {
  ScalableProblem p = test_problem();
  p.videos.popularity = zipf_popularity(800, 0.75);
  IncrementalState inc(p, lowest_rate_round_robin(p));
  verify_position_sets(inc);
  constexpr std::size_t kHot = 8;
  std::vector<bool> spilled(kHot, false);
  bool crossed_up = false;
  bool crossed_down = false;
  std::size_t most_hosted = 0;
  IncrementalState::Checkpoint mark = 0;
  Rng rng(53);
  for (int op = 0; op < 10'000; ++op) {
    switch (rng.uniform_index(8)) {
      case 0:
        mark = inc.checkpoint();
        break;
      case 1:
        inc.rollback(mark);
        break;
      case 2:
        inc.commit();
        mark = 0;
        break;
      default: {
        const std::size_t video =
            rng.bernoulli(0.5)
                ? static_cast<std::size_t>(rng.uniform_index(kHot))
                : static_cast<std::size_t>(rng.uniform_index(800));
        (void)random_mutation(p, inc, rng, video);
      }
    }
    verify_position_sets(inc);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "after operation " << op;
      return;
    }
    for (std::size_t v = 0; v < kHot; ++v) {
      const bool now = inc.replica_count(v) > IncrementalState::kInlineReplicas;
      crossed_up = crossed_up || (now && !spilled[v]);
      crossed_down = crossed_down || (!now && spilled[v]);
      spilled[v] = now;
    }
    for (std::size_t s = 0; s < p.cluster.num_servers; ++s) {
      most_hosted = std::max(most_hosted, inc.videos_on(s).size());
    }
  }
  EXPECT_GT(most_hosted, 128u);
  EXPECT_TRUE(crossed_up);
  EXPECT_TRUE(crossed_down);
  verify_against_recompute(p, inc);
}

// SoA boundary: growing a replica set past kInlineReplicas spills it to the
// heap and shrinking back un-spills it; every state along the way (and after
// commit) must agree with the from-scratch evaluation and the reverse index.
TEST(IncrementalState, ReplicaSetSpillsAndUnspillsAcrossInlineBoundary) {
  const ScalableProblem p = test_problem();
  ASSERT_GT(p.cluster.num_servers, IncrementalState::kInlineReplicas);
  IncrementalState inc(p, lowest_rate_round_robin(p));
  const std::size_t home = inc.replicas_of(0)[0];
  // Grow video 0 from 1 replica to one on every server (1 -> 6, crossing the
  // inline boundary at 4 -> 5), verifying each step.
  for (std::size_t s = 0; s < p.cluster.num_servers; ++s) {
    if (s == home) continue;
    inc.add_replica(0, s);
    inc.commit();
    verify_against_recompute(p, inc);
    verify_hosting_index(p, inc);
    verify_position_sets(inc);
  }
  EXPECT_EQ(inc.replica_count(0), p.cluster.num_servers);
  // Shrink back down to 1 (crossing 5 -> 4 un-spill), verifying each step.
  for (std::size_t s = 0; s < p.cluster.num_servers; ++s) {
    if (s == home) continue;
    inc.drop_replica(0, s);
    inc.commit();
    verify_against_recompute(p, inc);
    verify_hosting_index(p, inc);
    verify_position_sets(inc);
  }
  EXPECT_EQ(inc.replica_count(0), 1u);
  EXPECT_EQ(inc.replicas_of(0)[0], home);
}

TEST(IncrementalState, RollbackAcrossSpillBoundaryRestoresState) {
  const ScalableProblem p = test_problem();
  IncrementalState inc(p, lowest_rate_round_robin(p));
  const std::size_t home = inc.replicas_of(0)[0];
  const ScalableSolution before = inc.to_solution();
  const auto placement_before = sorted_placement(before);
  const auto mark = inc.checkpoint();
  // One journaled composite move that crosses the spill boundary both ways:
  // fill video 0 onto every server, then drop back to two replicas.
  for (std::size_t s = 0; s < p.cluster.num_servers; ++s) {
    if (s != home) inc.add_replica(0, s);
  }
  EXPECT_GT(inc.replica_count(0), IncrementalState::kInlineReplicas);
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < p.cluster.num_servers && dropped + 2 < p.cluster.num_servers;
       ++s) {
    if (s == home) continue;
    inc.drop_replica(0, s);
    ++dropped;
  }
  EXPECT_LE(inc.replica_count(0), IncrementalState::kInlineReplicas);
  inc.rollback(mark);
  const ScalableSolution after = inc.to_solution();
  EXPECT_EQ(after.bitrate_index, before.bitrate_index);
  EXPECT_EQ(sorted_placement(after), placement_before);
  verify_against_recompute(p, inc);
  verify_hosting_index(p, inc);
}

TEST(IncrementalState, OverflowCountersMatchScans) {
  ScalableProblem p = test_problem();
  p.expected_peak_requests = 4e5;  // saturating: overflow excursions happen
  IncrementalState inc(p, lowest_rate_round_robin(p));
  Rng rng(47);
  const double bw_cap = p.cluster.bandwidth_bps_per_server;
  const double st_cap = p.cluster.storage_bytes_per_server;
  for (int round = 0; round < 400; ++round) {
    (void)random_mutation(p, inc, rng);
    if (rng.bernoulli(0.3)) {
      inc.rollback(0);
    } else {
      inc.commit();
    }
    bool bw_over = false;
    bool st_over = false;
    for (std::size_t s = 0; s < p.cluster.num_servers; ++s) {
      bw_over |= inc.bandwidth_bps()[s] > bw_cap;
      st_over |= inc.storage_bytes()[s] > st_cap;
    }
    ASSERT_EQ(inc.any_bandwidth_overflow(), bw_over) << "round " << round;
    ASSERT_EQ(inc.any_storage_overflow(), st_over) << "round " << round;
  }
}

}  // namespace
}  // namespace vodrep
