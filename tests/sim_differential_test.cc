// Differential tests pinning the unified SimEngine to the pre-engine
// simulators: frozen, verbatim copies of the seed event loops (priority
// queue + full O(N) metric rescan per event) replay the same traces as the
// engine, and every SimResult field must agree — counters and per-server
// served counts exactly, float metrics within rounding tolerance (the
// engine maintains the utilization sum/sum-of-squares/max incrementally
// instead of recomputing them per event).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/core/objective.h"
#include "src/core/striping.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

// ---------------------------------------------------------------------------
// Frozen seed reference: replication organization.
// ---------------------------------------------------------------------------

struct SeedDeparture {
  double time;
  std::size_t server;
  bool via_backbone;

  bool operator>(const SeedDeparture& other) const {
    return time > other.time;
  }
};

/// The seed simulators' per-event O(N) integrator, copied verbatim.
class SeedLoadIntegrator {
 public:
  explicit SeedLoadIntegrator(std::vector<double> capacities_bps)
      : capacities_bps_(std::move(capacities_bps)),
        busy_integral_(capacities_bps_.size(), 0.0) {}

  void advance(const std::vector<StreamingServer>& servers, double now) {
    const double dt = now - last_time_;
    if (dt > 0.0) {
      std::vector<double> utilization(servers.size());
      double sum = 0.0;
      double max = 0.0;
      for (std::size_t s = 0; s < servers.size(); ++s) {
        const double busy = servers[s].busy_bps();
        busy_integral_[s] += busy * dt;
        utilization[s] = busy / capacities_bps_[s];
        sum += utilization[s];
        max = std::max(max, utilization[s]);
      }
      const double mean = sum / static_cast<double>(servers.size());
      const double eq2 = imbalance_max_relative(utilization);
      imbalance_eq2_.add(eq2, dt);
      imbalance_cv_.add(imbalance_cv(utilization), dt);
      imbalance_capacity_.add(std::max(0.0, max - mean), dt);
      peak_eq2_ = std::max(peak_eq2_, eq2);
      last_time_ = now;
    }
  }

  [[nodiscard]] double mean_eq2() const { return imbalance_eq2_.mean(); }
  [[nodiscard]] double mean_cv() const { return imbalance_cv_.mean(); }
  [[nodiscard]] double mean_capacity() const {
    return imbalance_capacity_.mean();
  }
  [[nodiscard]] double peak_eq2() const { return peak_eq2_; }
  [[nodiscard]] std::vector<double> mean_utilization(double horizon) const {
    std::vector<double> util(busy_integral_.size(), 0.0);
    if (horizon > 0.0) {
      for (std::size_t s = 0; s < util.size(); ++s) {
        util[s] = busy_integral_[s] / (horizon * capacities_bps_[s]);
      }
    }
    return util;
  }

 private:
  std::vector<double> capacities_bps_;
  double last_time_ = 0.0;
  TimeWeightedMean imbalance_eq2_;
  TimeWeightedMean imbalance_cv_;
  TimeWeightedMean imbalance_capacity_;
  double peak_eq2_ = 0.0;
  std::vector<double> busy_integral_;
};

/// The seed `simulate()` loop, copied verbatim (with the admission applied
/// by the caller since Dispatcher::dispatch is now decide-only; the seed
/// admitted at the identical point inside dispatch()).
SimResult seed_simulate(const Layout& layout, const SimConfig& config,
                        const RequestTrace& trace) {
  config.validate();

  std::vector<StreamingServer> servers;
  std::vector<double> capacities(config.num_servers);
  servers.reserve(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    capacities[s] = config.bandwidth_of(s);
    servers.emplace_back(capacities[s]);
  }
  Dispatcher dispatcher(layout, config.redirect, config.backbone_bps,
                        config.batching_window_sec, config.video_duration_sec,
                        config.batching_mode);
  std::priority_queue<SeedDeparture, std::vector<SeedDeparture>,
                      std::greater<>>
      departures;
  SeedLoadIntegrator integrator(capacities);

  SimResult result;
  result.total_requests = trace.size();

  std::size_t next_failure = 0;
  auto drain_until = [&](double now) {
    for (;;) {
      const bool have_departure =
          !departures.empty() && departures.top().time <= now;
      const bool have_failure =
          next_failure < config.failures.size() &&
          config.failures[next_failure].time <= now;
      if (have_failure &&
          (!have_departure ||
           config.failures[next_failure].time <= departures.top().time)) {
        const ServerFailure& failure = config.failures[next_failure++];
        integrator.advance(servers, failure.time);
        result.disrupted += servers[failure.server].fail();
        dispatcher.on_server_failed(failure.server);
        continue;
      }
      if (!have_departure) break;
      const SeedDeparture d = departures.top();
      departures.pop();
      integrator.advance(servers, d.time);
      if (!servers[d.server].failed()) {
        servers[d.server].release(config.stream_bitrate_bps);
      }
      if (d.via_backbone) {
        dispatcher.release_backbone(config.stream_bitrate_bps);
      }
    }
    integrator.advance(servers, now);
  };

  for (const Request& request : trace.requests) {
    drain_until(request.arrival_time);
    const auto decision =
        dispatcher.dispatch(request.video, config.stream_bitrate_bps, servers,
                            request.arrival_time);
    if (!decision.has_value()) {
      ++result.rejected;
      continue;
    }
    if (decision->reserves_bandwidth()) {
      servers[decision->server].admit(config.stream_bitrate_bps);
    }
    if (decision->batched) {
      ++result.batched;
      if (decision->patch_duration_sec > 0.0) {
        departures.push(
            SeedDeparture{request.arrival_time + decision->patch_duration_sec,
                          decision->server, false});
      }
      continue;
    }
    if (decision->redirected) ++result.redirected;
    if (decision->via_backbone) ++result.proxied;
    departures.push(SeedDeparture{
        request.arrival_time +
            request.watch_fraction * config.video_duration_sec,
        decision->server, decision->via_backbone});
  }
  drain_until(trace.horizon);

  result.mean_imbalance_eq2 = integrator.mean_eq2();
  result.mean_imbalance_cv = integrator.mean_cv();
  result.mean_imbalance_capacity = integrator.mean_capacity();
  result.peak_imbalance_eq2 = integrator.peak_eq2();
  result.served_per_server.resize(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    result.served_per_server[s] = servers[s].served_total();
  }
  result.utilization_per_server = integrator.mean_utilization(trace.horizon);
  return result;
}

// ---------------------------------------------------------------------------
// Frozen seed reference: striped organization (a one-copy hybrid layout,
// as make_striped_layout builds it: video v's group is groups[v][0]).
// ---------------------------------------------------------------------------

struct SeedStripedStream {
  std::size_t video = 0;
  bool alive = false;
};

struct SeedStripedDeparture {
  double time;
  std::size_t stream_id;

  bool operator>(const SeedStripedDeparture& other) const {
    return time > other.time;
  }
};

SimResult seed_striped_simulate(const HybridLayout& layout,
                                const SimConfig& config,
                                const RequestTrace& trace) {
  config.validate();
  layout.validate(config.num_servers);

  std::vector<StreamingServer> servers;
  servers.reserve(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    servers.emplace_back(config.bandwidth_of(s));
  }
  std::priority_queue<SeedStripedDeparture, std::vector<SeedStripedDeparture>,
                      std::greater<>>
      departures;
  std::vector<SeedStripedStream> streams;

  SimResult result;
  result.total_requests = trace.size();

  std::vector<double> capacities(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    capacities[s] = config.bandwidth_of(s);
  }
  SeedLoadIntegrator integrator(capacities);

  auto share_of = [&](std::size_t video) {
    return config.stream_bitrate_bps /
           static_cast<double>(layout.groups[video][0].size());
  };

  auto fail_server = [&](std::size_t failed) {
    (void)servers[failed].fail();
    for (SeedStripedStream& stream : streams) {
      if (!stream.alive) continue;
      const auto& group = layout.groups[stream.video][0];
      if (std::find(group.begin(), group.end(), failed) == group.end()) {
        continue;
      }
      stream.alive = false;
      ++result.disrupted;
      const double share = share_of(stream.video);
      for (std::size_t s : group) {
        if (s != failed && !servers[s].failed()) servers[s].release(share);
      }
    }
  };

  std::size_t next_failure = 0;
  auto drain_until = [&](double now) {
    for (;;) {
      const bool have_departure =
          !departures.empty() && departures.top().time <= now;
      const bool have_failure =
          next_failure < config.failures.size() &&
          config.failures[next_failure].time <= now;
      if (have_failure &&
          (!have_departure ||
           config.failures[next_failure].time <= departures.top().time)) {
        const ServerFailure& failure = config.failures[next_failure++];
        integrator.advance(servers, failure.time);
        fail_server(failure.server);
        continue;
      }
      if (!have_departure) break;
      const SeedStripedDeparture d = departures.top();
      departures.pop();
      integrator.advance(servers, d.time);
      SeedStripedStream& stream = streams[d.stream_id];
      if (stream.alive) {
        stream.alive = false;
        const double share = share_of(stream.video);
        for (std::size_t s : layout.groups[stream.video][0]) {
          servers[s].release(share);
        }
      }
    }
    integrator.advance(servers, now);
  };

  for (const Request& request : trace.requests) {
    drain_until(request.arrival_time);
    const auto& group = layout.groups[request.video][0];
    const double share = share_of(request.video);
    const bool admissible = std::all_of(
        group.begin(), group.end(),
        [&](std::size_t s) { return servers[s].can_admit(share); });
    if (!admissible) {
      ++result.rejected;
      continue;
    }
    for (std::size_t s : group) servers[s].admit(share);
    streams.push_back(SeedStripedStream{request.video, true});
    departures.push(SeedStripedDeparture{
        request.arrival_time +
            request.watch_fraction * config.video_duration_sec,
        streams.size() - 1});
  }
  drain_until(trace.horizon);

  result.mean_imbalance_eq2 = integrator.mean_eq2();
  result.mean_imbalance_cv = integrator.mean_cv();
  result.mean_imbalance_capacity = integrator.mean_capacity();
  result.peak_imbalance_eq2 = integrator.peak_eq2();
  result.served_per_server.resize(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    result.served_per_server[s] = servers[s].served_total();
  }
  result.utilization_per_server = integrator.mean_utilization(trace.horizon);
  return result;
}

// ---------------------------------------------------------------------------
// Frozen seed reference: hybrid organization.
// ---------------------------------------------------------------------------

struct SeedHybridStream {
  std::size_t video = 0;
  std::size_t group = 0;
  bool alive = false;
};

struct SeedHybridDeparture {
  double time;
  std::size_t stream_id;

  bool operator>(const SeedHybridDeparture& other) const {
    return time > other.time;
  }
};

SimResult seed_hybrid_simulate(const HybridLayout& layout,
                               const SimConfig& config,
                               const RequestTrace& trace) {
  config.validate();
  layout.validate(config.num_servers);

  std::vector<StreamingServer> servers;
  servers.reserve(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    servers.emplace_back(config.bandwidth_of(s));
  }
  std::priority_queue<SeedHybridDeparture, std::vector<SeedHybridDeparture>,
                      std::greater<>>
      departures;
  std::vector<SeedHybridStream> streams;
  std::vector<std::size_t> rr_counter(layout.num_videos(), 0);

  SimResult result;
  result.total_requests = trace.size();

  std::vector<double> capacities(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    capacities[s] = config.bandwidth_of(s);
  }
  SeedLoadIntegrator integrator(capacities);

  auto group_of =
      [&](const SeedHybridStream& stream) -> const std::vector<std::size_t>& {
    return layout.groups[stream.video][stream.group];
  };
  auto share_of = [&](const SeedHybridStream& stream) {
    return config.stream_bitrate_bps /
           static_cast<double>(group_of(stream).size());
  };

  auto fail_server = [&](std::size_t failed) {
    (void)servers[failed].fail();
    for (SeedHybridStream& stream : streams) {
      if (!stream.alive) continue;
      const auto& group = group_of(stream);
      if (std::find(group.begin(), group.end(), failed) == group.end()) {
        continue;
      }
      stream.alive = false;
      ++result.disrupted;
      const double share = share_of(stream);
      for (std::size_t s : group) {
        if (s != failed && !servers[s].failed()) servers[s].release(share);
      }
    }
  };

  std::size_t next_failure = 0;
  auto drain_until = [&](double now) {
    for (;;) {
      const bool have_departure =
          !departures.empty() && departures.top().time <= now;
      const bool have_failure =
          next_failure < config.failures.size() &&
          config.failures[next_failure].time <= now;
      if (have_failure &&
          (!have_departure ||
           config.failures[next_failure].time <= departures.top().time)) {
        const ServerFailure& failure = config.failures[next_failure++];
        integrator.advance(servers, failure.time);
        fail_server(failure.server);
        continue;
      }
      if (!have_departure) break;
      const SeedHybridDeparture d = departures.top();
      departures.pop();
      integrator.advance(servers, d.time);
      SeedHybridStream& stream = streams[d.stream_id];
      if (stream.alive) {
        stream.alive = false;
        const double share = share_of(stream);
        for (std::size_t s : group_of(stream)) servers[s].release(share);
      }
    }
    integrator.advance(servers, now);
  };

  for (const Request& request : trace.requests) {
    drain_until(request.arrival_time);
    const auto& copies = layout.groups[request.video];
    const std::size_t pick = rr_counter[request.video] % copies.size();
    ++rr_counter[request.video];
    const auto& group = copies[pick];
    const double share =
        config.stream_bitrate_bps / static_cast<double>(group.size());
    const bool admissible = std::all_of(
        group.begin(), group.end(),
        [&](std::size_t s) { return servers[s].can_admit(share); });
    if (!admissible) {
      ++result.rejected;
      continue;
    }
    for (std::size_t s : group) servers[s].admit(share);
    streams.push_back(SeedHybridStream{request.video, pick, true});
    departures.push(SeedHybridDeparture{
        request.arrival_time +
            request.watch_fraction * config.video_duration_sec,
        streams.size() - 1});
  }
  drain_until(trace.horizon);

  result.mean_imbalance_eq2 = integrator.mean_eq2();
  result.mean_imbalance_cv = integrator.mean_cv();
  result.mean_imbalance_capacity = integrator.mean_capacity();
  result.peak_imbalance_eq2 = integrator.peak_eq2();
  result.served_per_server.resize(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    result.served_per_server[s] = servers[s].served_total();
  }
  result.utilization_per_server = integrator.mean_utilization(trace.horizon);
  return result;
}

// ---------------------------------------------------------------------------
// Comparison harness.
// ---------------------------------------------------------------------------

void expect_near_rel(double seed, double engine, const char* what,
                     double rel_tol = 1e-7) {
  const double tol = rel_tol * std::max(1.0, std::abs(seed));
  EXPECT_NEAR(seed, engine, tol) << what;
}

/// Counters and served counts must be bit-exact (the engine replays the
/// identical admission decisions); integrated float metrics may differ in
/// the last ulps because the engine accumulates them incrementally.
void expect_same_result(const SimResult& seed, const SimResult& engine) {
  EXPECT_EQ(seed.total_requests, engine.total_requests);
  EXPECT_EQ(seed.rejected, engine.rejected);
  EXPECT_EQ(seed.redirected, engine.redirected);
  EXPECT_EQ(seed.proxied, engine.proxied);
  EXPECT_EQ(seed.batched, engine.batched);
  EXPECT_EQ(seed.disrupted, engine.disrupted);
  EXPECT_EQ(seed.served_per_server, engine.served_per_server);
  expect_near_rel(seed.mean_imbalance_eq2, engine.mean_imbalance_eq2,
                  "mean_imbalance_eq2");
  // The CV metric goes through sumsq/n - mean^2, which cancels
  // catastrophically when the loads are (near-)equal: a true CV of zero
  // leaves ~1e-7 of rounding residue in the incremental accumulator where
  // the two-pass seed computes ~1e-17.  Wider tolerance, still far below
  // any CV value the experiments act on.
  expect_near_rel(seed.mean_imbalance_cv, engine.mean_imbalance_cv,
                  "mean_imbalance_cv", 1e-5);
  expect_near_rel(seed.mean_imbalance_capacity,
                  engine.mean_imbalance_capacity, "mean_imbalance_capacity");
  expect_near_rel(seed.peak_imbalance_eq2, engine.peak_imbalance_eq2,
                  "peak_imbalance_eq2");
  ASSERT_EQ(seed.utilization_per_server.size(),
            engine.utilization_per_server.size());
  for (std::size_t s = 0; s < seed.utilization_per_server.size(); ++s) {
    expect_near_rel(seed.utilization_per_server[s],
                    engine.utilization_per_server[s],
                    "utilization_per_server");
  }
}

struct World {
  std::size_t num_videos;
  std::size_t num_servers;
  SimConfig config;
  RequestTrace trace;
};

/// Random worlds spanning redirects, batching modes, injected failures,
/// heterogeneous links, and abandonment — same envelope as the fuzz suite.
/// A long-horizon world runs 8–20 video durations, so streams retire and
/// new ones reuse their records many times over, and always injects its
/// crashes after the first streams have retired.
World random_world(Rng& rng, bool replication_extensions,
                   bool long_horizon = false) {
  World world;
  world.num_videos = 5 + rng.uniform_index(40);
  world.num_servers = 2 + rng.uniform_index(9);

  world.config.num_servers = world.num_servers;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
  if (rng.bernoulli(0.3)) {
    world.config.per_server_bandwidth_bps.resize(world.num_servers);
    for (double& b : world.config.per_server_bandwidth_bps) {
      b = units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
    }
  }
  world.config.video_duration_sec = rng.uniform(50.0, 2000.0);
  if (replication_extensions) {
    switch (rng.uniform_index(3)) {
      case 0: world.config.redirect = RedirectMode::kNone; break;
      case 1: world.config.redirect = RedirectMode::kOtherHolders; break;
      default: world.config.redirect = RedirectMode::kBackboneProxy; break;
    }
    world.config.backbone_bps = rng.uniform(0.0, 1e9);
    if (rng.bernoulli(0.5)) {
      world.config.batching_window_sec = rng.uniform(1.0, 500.0);
      world.config.batching_mode = rng.bernoulli(0.5)
                                       ? BatchingMode::kPiggyback
                                       : BatchingMode::kPatching;
    }
  }

  const double duration = world.config.video_duration_sec;
  const double horizon = long_horizon ? duration * rng.uniform(8.0, 20.0)
                                      : rng.uniform(200.0, 3000.0);
  if (long_horizon || rng.bernoulli(0.5)) {
    const std::size_t crashes = 1 + rng.uniform_index(2);
    // A stream admitted at t=0 departs by `duration` at the latest.
    double t = long_horizon ? duration : 0.0;
    const double window = horizon - t;
    for (std::size_t k = 0; k < crashes; ++k) {
      t += rng.uniform(1.0, window / 2.0);
      world.config.failures.push_back(ServerFailure{
          t, static_cast<std::size_t>(rng.uniform_index(world.num_servers))});
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.05, 1.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(world.num_videos, rng.uniform(0.0, 1.1));
  if (rng.bernoulli(0.4)) {
    spec.abandonment.completion_probability = rng.uniform(0.2, 1.0);
  }
  world.trace = generate_trace(rng, spec);
  return world;
}

/// Random replication layout: each video on 1..N distinct servers.
Layout random_layout(Rng& rng, std::size_t num_videos,
                     std::size_t num_servers) {
  HostLists hosts(num_videos);
  std::vector<std::size_t> pool(num_servers);
  for (std::size_t v = 0; v < num_videos; ++v) {
    for (std::size_t s = 0; s < num_servers; ++s) pool[s] = s;
    const std::size_t replicas = 1 + rng.uniform_index(num_servers);
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::size_t pick = r + rng.uniform_index(num_servers - r);
      std::swap(pool[r], pool[pick]);
      hosts[v].push_back(pool[r]);
    }
  }
  return Layout(hosts);
}

void check_replicated(std::uint64_t seed, int trials, bool long_horizon) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world =
        random_world(rng, /*replication_extensions=*/true, long_horizon);
    const Layout layout =
        random_layout(rng, world.num_videos, world.num_servers);
    const SimResult seed_result =
        seed_simulate(layout, world.config, world.trace);
    const SimResult engine =
        simulate(ReplicatedPolicy(layout, world.config), world.trace);
    expect_same_result(seed_result, engine);
  }
}

void check_striped(std::uint64_t seed, int trials, bool long_horizon) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world =
        random_world(rng, /*replication_extensions=*/false, long_horizon);
    const std::size_t width = 1 + rng.uniform_index(world.num_servers);
    const HybridLayout layout =
        make_striped_layout(world.num_videos, world.num_servers, width);
    const SimResult seed_result =
        seed_striped_simulate(layout, world.config, world.trace);
    const SimResult engine =
        simulate(HybridPolicy(layout, world.config), world.trace);
    expect_same_result(seed_result, engine);
  }
}

void check_hybrid(std::uint64_t seed, int trials, bool long_horizon) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const World world =
        random_world(rng, /*replication_extensions=*/false, long_horizon);
    const std::size_t width = 1 + rng.uniform_index(world.num_servers);
    const std::size_t replicas =
        1 + rng.uniform_index(world.num_servers / width);
    const HybridLayout layout = make_hybrid_layout(
        world.num_videos, world.num_servers, width, replicas);
    const SimResult seed_result =
        seed_hybrid_simulate(layout, world.config, world.trace);
    const SimResult engine =
        simulate(HybridPolicy(layout, world.config), world.trace);
    expect_same_result(seed_result, engine);
  }
}

TEST(SimDifferential, EngineReproducesSeedReplicationSimulator) {
  check_replicated(0xD1FF1, 60, /*long_horizon=*/false);
}

TEST(SimDifferential, EngineReproducesSeedStripedSimulator) {
  check_striped(0xD1FF2, 40, /*long_horizon=*/false);
}

TEST(SimDifferential, EngineReproducesSeedHybridSimulator) {
  check_hybrid(0xD1FF3, 40, /*long_horizon=*/false);
}

// Horizons of many video durations: departures fire throughout, so the
// stream tables retire and reuse their records and the crashes walk only
// the live span.
TEST(SimDifferential, LongHorizonReplicationMatchesSeed) {
  check_replicated(0xD1FF4, 20, /*long_horizon=*/true);
}

TEST(SimDifferential, LongHorizonStripedMatchesSeed) {
  check_striped(0xD1FF5, 20, /*long_horizon=*/true);
}

TEST(SimDifferential, LongHorizonHybridMatchesSeed) {
  check_hybrid(0xD1FF6, 20, /*long_horizon=*/true);
}

}  // namespace
}  // namespace vodrep
