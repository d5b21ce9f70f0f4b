#include "src/core/slf_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "src/core/adams_replication.h"
#include "src/core/bounds.h"
#include "src/core/classification_replication.h"
#include "src/core/objective.h"
#include "src/core/round_robin_placement.h"
#include "src/core/uniform_replication.h"
#include "src/core/zipf_interval_replication.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(SlfPlacement, ProducesValidLayouts) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  for (double theta : {0.25, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(60, theta);
    const auto plan = adams.replicate(popularity, 8, 96);
    const Layout layout = slf.place(plan, popularity, 8, 12);
    EXPECT_NO_THROW(layout.validate(plan, 8, 12)) << theta;
  }
}

TEST(SlfPlacement, HeaviestReplicaGoesToServerZeroFirst) {
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1};
  const auto popularity = normalized_popularity({5.0, 3.0, 2.0});
  const SmallestLoadFirstPlacement slf;
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  const Layout layout = slf.place_traced(plan, popularity, 3, 1, &steps);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].video, 0u);
  EXPECT_EQ(steps[0].server, 0u);
  EXPECT_EQ(steps[1].video, 1u);
  EXPECT_EQ(steps[1].server, 1u);
  EXPECT_EQ(steps[2].video, 2u);
  EXPECT_EQ(steps[2].server, 2u);
  (void)layout;
}

TEST(SlfPlacement, SecondRoundPrefersLeastLoadedServer) {
  // Round 1 fills servers with weights 0.4, 0.35, 0.25 -> server 2 is the
  // least loaded, so round 2's heaviest replica must land there.
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1, 1};
  const auto popularity = normalized_popularity({0.4, 0.35, 0.25, 0.0001});
  const SmallestLoadFirstPlacement slf;
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  (void)slf.place_traced(plan, popularity, 3, 2, &steps);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[3].video, 3u);
  EXPECT_EQ(steps[3].server, 2u);
  EXPECT_EQ(steps[3].round, 1u);
}

TEST(SlfPlacement, AvoidsServersAlreadyHostingTheVideo) {
  // The paper's Figure 3 situation: the least-loaded server already holds a
  // replica of the video, so the replica goes to the next smallest load.
  ReplicationPlan plan;
  plan.replicas = {2, 1, 1};
  // Weights: v0 -> 0.3 each (two replicas), v1 -> 0.25, v2 -> 0.15.
  const auto popularity = normalized_popularity({0.6, 0.25, 0.15});
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 2, 2);
  // v0's two replicas must be on distinct servers despite load preferences.
  auto servers = layout.host_lists()[0];
  std::sort(servers.begin(), servers.end());
  EXPECT_EQ(servers, (std::vector<std::size_t>{0, 1}));
}

TEST(SlfPlacement, EachRoundUsesEachServerAtMostOnce) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto popularity = zipf_popularity(40, 0.75);
  const auto plan = adams.replicate(popularity, 8, 64);
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  (void)slf.place_traced(plan, popularity, 8, 8, &steps);
  std::map<std::size_t, std::set<std::size_t>> servers_by_round;
  for (const auto& step : steps) {
    EXPECT_TRUE(servers_by_round[step.round].insert(step.server).second)
        << "server " << step.server << " used twice in round " << step.round;
  }
}

TEST(SlfPlacement, BeatsOrMatchesRoundRobinOnExpectedImbalance) {
  const ZipfIntervalReplication zipf;
  const SmallestLoadFirstPlacement slf;
  const RoundRobinPlacement rr;
  for (double theta : {0.25, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(300, theta);
    const auto plan = zipf.replicate(popularity, 8, 360);
    const auto slf_loads =
        slf.place(plan, popularity, 8, 45).expected_loads(popularity, 8);
    const auto rr_loads =
        rr.place(plan, popularity, 8, 45).expected_loads(popularity, 8);
    EXPECT_LE(imbalance_max_relative(slf_loads),
              imbalance_max_relative(rr_loads) + 1e-12)
        << "theta=" << theta;
  }
}

TEST(SlfPlacement, SpreadWithinTheoremBound) {
  // Theorem 4.2 on the paper's own scenario sizes.
  const ZipfIntervalReplication zipf;
  const SmallestLoadFirstPlacement slf;
  for (double theta : {0.271, 0.5, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(300, theta);
    for (std::size_t budget : {360u, 420u, 480u}) {
      const auto plan = zipf.replicate(popularity, 8, budget);
      const std::size_t cap = (budget + 7) / 8;
      const auto loads =
          slf.place(plan, popularity, 8, cap).expected_loads(popularity, 8);
      EXPECT_LE(load_spread(loads),
                slf_spread_bound(plan, popularity) + 1e-12)
          << "theta=" << theta << " budget=" << budget;
    }
  }
}

TEST(SlfPlacement, TightDistinctnessInstanceIsPlaced) {
  // Capacity exactly one slot per server: a 2-replica video must use both
  // servers — the deferral machinery has zero slack and must still succeed.
  ReplicationPlan plan;
  plan.replicas = {2};
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, {1.0}, 2, 1);
  EXPECT_NO_THROW(layout.validate(plan, 2, 1));
}

TEST(SlfPlacement, ExactlyFullClusterIsPlaced) {
  // total replicas == N * capacity: every slot used, no wiggle room.
  const AdamsReplication adams;
  const auto popularity = zipf_popularity(12, 0.9);
  const auto plan = adams.replicate(popularity, 4, 16);
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 4, 4);
  EXPECT_NO_THROW(layout.validate(plan, 4, 4));
  for (std::size_t count : layout.replicas_per_server(4)) {
    EXPECT_EQ(count, 4u);
  }
}

TEST(SlfPlacement, HandlesFullReplication) {
  ReplicationPlan plan;
  plan.replicas = {4, 4, 4};
  const auto popularity = normalized_popularity({0.5, 0.3, 0.2});
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 4, 3);
  EXPECT_NO_THROW(layout.validate(plan, 4, 3));
  // Full replication balances perfectly.
  const auto loads = layout.expected_loads(popularity, 4);
  EXPECT_NEAR(load_spread(loads), 0.0, 1e-12);
}

TEST(SlfPlacement, DeterministicAcrossCalls) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto popularity = zipf_popularity(50, 0.75);
  const auto plan = adams.replicate(popularity, 8, 75);
  const Layout a = slf.place(plan, popularity, 8, 10);
  const Layout b = slf.place(plan, popularity, 8, 10);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Differential tier: the per-round server order against the O(N) scan per
// replica it replaced, and the run merge of videos_by_weight against the
// stable sort it replaced, both kept here as the oracle.

using Step = SmallestLoadFirstPlacement::Step;

/// The group order before the run merge: the video indices stably sorted by
/// weight, non-increasing.
std::vector<std::size_t> stable_sort_order(const std::vector<double>& weights) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });
  return order;
}

TEST(VideosByWeight, MatchesStableSortOnManyRuns) {
  // Few distinct values, so the weights rise often and tie within and
  // across runs.
  Rng rng(2307);
  std::size_t rises = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t m = rng.uniform_index(300);
    const std::size_t levels = 1 + rng.uniform_index(8);
    std::vector<double> weights(m);
    for (double& w : weights) {
      w = static_cast<double>(rng.uniform_index(levels)) / 7.0;
    }
    for (std::size_t i = 1; i < m; ++i) rises += weights[i] > weights[i - 1];
    EXPECT_EQ(videos_by_weight(weights), stable_sort_order(weights))
        << "trial " << trial;
  }
  EXPECT_GT(rises, 10000u);
}

TEST(VideosByWeight, MatchesStableSortOnRandomPlans) {
  // Replica counts drawn apart from popularity: w_i = p_i / r_i has a run
  // per rise of r_i, and uniform popularity ties every video with equal r_i.
  Rng rng(2308);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(500);
    const std::size_t n = 1 + rng.uniform_index(32);
    const double theta = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 1.2);
    const auto popularity = zipf_popularity(m, theta);
    ReplicationPlan plan;
    plan.replicas.resize(m);
    for (std::size_t& r : plan.replicas) r = 1 + rng.uniform_index(n);
    const std::vector<double> weights = plan.weights(popularity);
    EXPECT_EQ(videos_by_weight(weights), stable_sort_order(weights))
        << "trial " << trial;
  }
  // An Adams plan at catalogue scale: one run per replica count.
  const auto popularity = zipf_popularity(100'000, 0.75);
  const std::vector<double> weights =
      AdamsReplication().replicate(popularity, 256, 120'000).weights(popularity);
  EXPECT_EQ(videos_by_weight(weights), stable_sort_order(weights));
}

Layout scan_slf(const ReplicationPlan& plan,
                const std::vector<double>& popularity,
                std::size_t num_servers, std::size_t capacity_per_server,
                std::vector<Step>* steps) {
  struct PendingReplica {
    std::size_t video;
    double weight;
  };
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);

  const std::vector<double> weights = plan.weights(popularity);
  HostLists layout(plan.replicas.size());

  std::deque<PendingReplica> pending;
  for (std::size_t video : stable_sort_order(weights)) {
    for (std::size_t k = 0; k < plan.replicas[video]; ++k) {
      pending.push_back(PendingReplica{video, weights[video]});
    }
  }

  std::vector<double> loads(num_servers, 0.0);
  std::vector<std::size_t> stored(num_servers, 0);

  auto hosts = [&](std::size_t server, std::size_t video) {
    const auto& servers = layout[video];
    return std::find(servers.begin(), servers.end(), server) != servers.end();
  };

  std::size_t round = 0;
  while (!pending.empty()) {
    const std::size_t take = std::min<std::size_t>(num_servers, pending.size());
    std::vector<bool> used_this_round(num_servers, false);
    std::deque<PendingReplica> deferred;
    std::size_t placed_this_round = 0;

    for (std::size_t n = 0; n < take; ++n) {
      const PendingReplica replica = pending.front();
      pending.pop_front();

      std::size_t best = num_servers;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < num_servers; ++s) {
        if (used_this_round[s] || stored[s] >= capacity_per_server ||
            hosts(s, replica.video)) {
          continue;
        }
        if (loads[s] < best_load) {
          best_load = loads[s];
          best = s;
        }
      }
      if (best == num_servers) {
        deferred.push_back(replica);
        continue;
      }
      used_this_round[best] = true;
      ++stored[best];
      loads[best] += replica.weight;
      layout[replica.video].push_back(best);
      ++placed_this_round;
      if (steps != nullptr) {
        steps->push_back(
            Step{replica.video, best, replica.weight, loads[best], round});
      }
    }

    if (placed_this_round == 0) {
      throw InfeasibleError(
          "slf placement: no feasible server for the remaining replicas");
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      pending.push_front(*it);
    }
    ++round;
  }
  return Layout(layout);
}

struct Outcome {
  bool infeasible = false;
  Layout layout;
  std::vector<Step> steps;
};

template <typename Place>
Outcome run_placement(Place place) {
  Outcome outcome;
  try {
    outcome.layout = place(&outcome.steps);
  } catch (const InfeasibleError&) {
    outcome.infeasible = true;
    outcome.steps.clear();
  }
  return outcome;
}

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Places with both sides and expects identical layouts, identical step
/// streams (floats bit-equal) and identical InfeasibleError verdicts.
/// Returns the oracle's run.
Outcome expect_same_as_scan(const ReplicationPlan& plan,
                            const std::vector<double>& popularity,
                            std::size_t num_servers, std::size_t capacity) {
  const SmallestLoadFirstPlacement slf;
  Outcome expected = run_placement([&](std::vector<Step>* steps) {
    return scan_slf(plan, popularity, num_servers, capacity, steps);
  });
  const Outcome actual = run_placement([&](std::vector<Step>* steps) {
    return slf.place_traced(plan, popularity, num_servers, capacity, steps);
  });
  EXPECT_EQ(actual.infeasible, expected.infeasible);
  EXPECT_EQ(actual.layout, expected.layout);
  EXPECT_EQ(actual.steps.size(), expected.steps.size());
  for (std::size_t k = 0;
       k < std::min(actual.steps.size(), expected.steps.size()); ++k) {
    const Step& a = actual.steps[k];
    const Step& e = expected.steps[k];
    const bool same = a.video == e.video && a.server == e.server &&
                      bits(a.weight) == bits(e.weight) &&
                      bits(a.server_load_after) == bits(e.server_load_after) &&
                      a.round == e.round;
    EXPECT_TRUE(same) << "step " << k << ": video " << a.video << "/"
                      << e.video << " server " << a.server << "/" << e.server
                      << " round " << a.round << "/" << e.round;
    if (!same) break;
  }
  if (!expected.infeasible) {
    EXPECT_EQ(slf.place(plan, popularity, num_servers, capacity),
              expected.layout);
  }
  return expected;
}

/// True when some round other than the last placed fewer than N replicas,
/// i.e. the distinctness rule deferred a replica to the next round.
bool deferred_a_replica(const std::vector<Step>& steps,
                        std::size_t num_servers) {
  std::vector<std::size_t> per_round;
  for (const Step& step : steps) {
    per_round.resize(step.round + 1, 0);
    ++per_round[step.round];
  }
  for (std::size_t r = 0; r + 1 < per_round.size(); ++r) {
    if (per_round[r] < num_servers) return true;
  }
  return false;
}

TEST(SlfPlacementDifferential, MatchesScanOnRandomWorlds) {
  const AdamsReplication adams;
  const ZipfIntervalReplication zipf;
  const ClassificationReplication classification;
  const UniformReplication uniform;
  const ReplicationPolicy* policies[] = {&adams, &zipf, &classification,
                                         &uniform};
  Rng rng(0x51F0);
  std::size_t worlds = 0;
  std::size_t infeasible = 0;
  std::size_t deferring = 0;
  std::size_t full_replication = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(24);
    // One world in four is small and adversarial: M within 2 of N, so the
    // distinctness rule keeps blocking the least-loaded server.
    const bool adversarial = trial % 4 == 3;
    std::size_t m = 1 + rng.uniform_index(200);
    if (adversarial) m = std::max<std::size_t>(n + rng.uniform_index(5), 3) - 2;
    // Uniform popularity makes every load tie.
    const double theta = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 1.2);
    const auto popularity = zipf_popularity(m, theta);

    ReplicationPlan plan;
    if (adversarial && rng.bernoulli(0.5)) {
      // Hand-made counts, about a third of the videos at r_i = N.
      plan.replicas.resize(m);
      for (std::size_t& r : plan.replicas) {
        r = rng.bernoulli(0.33) ? n : 1 + rng.uniform_index(n);
      }
    } else {
      const std::size_t budget = m + rng.uniform_index(m * (n - 1) + 1);
      try {
        plan = policies[trial % 4]->replicate(popularity, n, budget);
      } catch (const InvalidArgumentError&) {
        continue;
      } catch (const InfeasibleError&) {
        continue;
      }
    }
    // ceil(R/N) + {0, 1, 2} leaves little slack; ceil(R/N) - 1 must throw
    // InfeasibleError on both sides.
    const std::size_t total = plan.total_replicas();
    const std::size_t capacity = (total + n - 1) / n + rng.uniform_index(4) - 1;
    SCOPED_TRACE(testing::Message() << "trial " << trial << " M=" << m
                                    << " N=" << n << " R=" << total
                                    << " C=" << capacity);
    ++worlds;
    const Outcome expected = expect_same_as_scan(plan, popularity, n, capacity);
    if (testing::Test::HasFailure()) return;
    if (expected.infeasible) ++infeasible;
    if (deferred_a_replica(expected.steps, n)) ++deferring;
    if (std::find(plan.replicas.begin(), plan.replicas.end(), n) !=
        plan.replicas.end()) {
      ++full_replication;
    }
  }
  EXPECT_GE(worlds, 2000u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(full_replication, 0u);
  // The oracle never deferred a replica: with r_i <= N and the storage
  // pre-check, every full round places one replica on every server.
  // SmallestLoadFirstPlacement relies on this and has no deferral queue.
  EXPECT_EQ(deferring, 0u);
}

// Each round orders the servers by a radix sort of their loads' bits.  These
// worlds reach its edge cases at large N: server ids above 255, every load
// tied (uniform popularity and replication), zero-weight tails whose rounds
// leave every load as it was, and first-round loads spread over many
// binades.  Round 0 of every world has all loads +0.0, so no digit varies.
TEST(SlfPlacementDifferential, MatchesScanAtLargeServerCounts) {
  const AdamsReplication adams;
  const UniformReplication uniform;
  Rng rng(0x51F1);
  std::size_t above_byte = 0;
  std::size_t all_tied = 0;
  std::size_t zero_tail = 0;
  std::size_t wide_span = 0;
  for (int trial = 0; trial < 96; ++trial) {
    const std::size_t n = 25 + rng.uniform_index(276);
    const std::size_t m = n / 2 + rng.uniform_index(3 * n);
    const double degree = rng.uniform(1.0, 2.5);
    auto budget = std::min(
        m * n, static_cast<std::size_t>(degree * static_cast<double>(m)));
    std::vector<double> popularity;
    const ReplicationPolicy* policy = &adams;
    switch (trial % 4) {
      case 0:
        popularity = zipf_popularity(m, rng.uniform(0.0, 1.2));
        break;
      case 1:
        // The same replica count for every video: every weight is equal,
        // and so is every load at the start of each round after the first.
        popularity = zipf_popularity(m, 0.0);
        policy = &uniform;
        budget = m * (1 + rng.uniform_index(3));
        break;
      case 2:
        // Only the first third of the catalogue is ever requested.
        popularity = zipf_popularity(m / 3 + 1, rng.uniform(0.5, 1.0));
        popularity.resize(m, 0.0);
        break;
      default:
        popularity = zipf_popularity(m, rng.uniform(2.0, 4.0));
        break;
    }
    const ReplicationPlan plan = policy->replicate(popularity, n, budget);
    const std::size_t total = plan.total_replicas();
    const std::size_t capacity = (total + n - 1) / n + rng.uniform_index(3);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " M=" << m
                                    << " N=" << n << " R=" << total
                                    << " C=" << capacity);
    const Outcome expected = expect_same_as_scan(plan, popularity, n, capacity);
    if (testing::Test::HasFailure()) return;
    ASSERT_FALSE(expected.infeasible);
    if (n > 256 && total > n) ++above_byte;
    if (trial % 4 == 1 && total >= 2 * n) ++all_tied;
    if (trial % 4 == 2 && total > n) ++zero_tail;
    if (trial % 4 == 3 && total > n) {
      // The loads the second round starts from: one weight per server.
      const auto first_round = std::minmax_element(
          expected.steps.begin(),
          expected.steps.begin() + static_cast<std::ptrdiff_t>(n),
          [](const Step& a, const Step& b) { return a.weight < b.weight; });
      if (std::ilogb(first_round.second->weight) -
              std::ilogb(first_round.first->weight) >=
          8) {
        ++wide_span;
      }
    }
  }
  EXPECT_GT(above_byte, 0u);
  EXPECT_GT(all_tied, 0u);
  EXPECT_GT(zero_tail, 0u);
  EXPECT_GT(wide_span, 0u);
}

TEST(SlfPlacementDifferential, MatchesScanAtCatalogueScale) {
  const std::size_t m = 100000;
  const std::size_t n = 256;
  const auto popularity = zipf_popularity(m, 0.75);
  const auto plan = AdamsReplication().replicate(popularity, n, m * 6 / 5);
  const std::size_t capacity = (plan.total_replicas() + n - 1) / n;
  EXPECT_FALSE(expect_same_as_scan(plan, popularity, n, capacity).infeasible);
}

}  // namespace
}  // namespace vodrep
