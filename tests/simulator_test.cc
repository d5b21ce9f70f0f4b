#include "src/sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/replicated_policy.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

constexpr double kRate = units::mbps(4);

SimConfig basic_config(std::size_t servers = 2, double capacity = 2 * kRate,
                       double duration = 100.0) {
  SimConfig config;
  config.num_servers = servers;
  config.bandwidth_bps_per_server = capacity;
  config.stream_bitrate_bps = kRate;
  config.video_duration_sec = duration;
  return config;
}

RequestTrace trace_of(std::vector<Request> requests, double horizon) {
  RequestTrace trace;
  trace.requests = std::move(requests);
  trace.horizon = horizon;
  return trace;
}

TEST(Simulator, EmptyTraceYieldsNoActivity) {
  const Layout layout{{0}};
  const SimResult result =
      simulate(ReplicatedPolicy(layout, basic_config()), trace_of({}, 50.0));
  EXPECT_EQ(result.total_requests, 0u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_DOUBLE_EQ(result.rejection_rate(), 0.0);
  EXPECT_DOUBLE_EQ(result.mean_utilization(), 0.0);
}

TEST(Simulator, AdmitsWithinCapacity) {
  const Layout layout{{0}};
  // Two streams on a 2-stream server: both admitted.
  const SimResult result = simulate(
      ReplicatedPolicy(layout, basic_config(1)),
      trace_of({Request{1.0, 0}, Request{2.0, 0}}, 50.0));
  EXPECT_EQ(result.total_requests, 2u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.served_per_server[0], 2u);
}

TEST(Simulator, RejectsBeyondCapacity) {
  const Layout layout{{0}};
  // Three overlapping streams on a 2-stream server: the third is rejected.
  const SimResult result = simulate(
      ReplicatedPolicy(layout, basic_config(1)),
      trace_of({Request{1.0, 0}, Request{2.0, 0}, Request{3.0, 0}}, 50.0));
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_NEAR(result.rejection_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Simulator, DeparturesFreeCapacity) {
  const Layout layout{{0}};
  // Duration 10: the first two streams end at 11/12, so the stream at t=20
  // is admitted again.
  SimConfig config = basic_config(1, 2 * kRate, 10.0);
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config),
      trace_of({Request{1.0, 0}, Request{2.0, 0}, Request{20.0, 0}}, 50.0));
  EXPECT_EQ(result.rejected, 0u);
}

TEST(Simulator, RoundRobinSplitsLoadAcrossReplicas) {
  const Layout layout{{0, 1}};
  std::vector<Request> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(Request{static_cast<double>(i), 0});
  }
  SimConfig config = basic_config(2, 20 * kRate, 1000.0);
  const SimResult result =
      simulate(ReplicatedPolicy(layout, config), trace_of(requests, 100.0));
  EXPECT_EQ(result.served_per_server[0], 5u);
  EXPECT_EQ(result.served_per_server[1], 5u);
}

TEST(Simulator, ImbalanceIsZeroForSymmetricLoad) {
  const Layout layout{{0, 1}};
  // Pairs of back-to-back requests keep the two servers in lockstep except
  // for the instant between the two arrivals of a pair.
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Request{static_cast<double>(i), 0});
    requests.push_back(Request{static_cast<double>(i), 0});
  }
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  const SimResult result =
      simulate(ReplicatedPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_NEAR(result.mean_imbalance_eq2, 0.0, 1e-9);
}

TEST(Simulator, ImbalanceDetectsSkewedLayout) {
  // All load on server 0 of 2: loads {x, 0} -> Eq.2 L = (x - x/2)/(x/2) = 1.
  const Layout layout{{0}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config),
      trace_of({Request{0.0, 0}, Request{1.0, 0}}, 50.0));
  EXPECT_NEAR(result.mean_imbalance_eq2, 1.0, 1e-6);
  EXPECT_NEAR(result.peak_imbalance_eq2, 1.0, 1e-9);
}

TEST(Simulator, CapacityNormalizedImbalanceMatchesHandComputation) {
  // All load on server 0 of 2, capacity 100 streams: two streams held for
  // the whole window give loads {2r, 0}; (max - mean)/B = r / (100 r) after
  // both arrive.  Segment [0,1) has one stream: 0.5r / 100r.
  const Layout layout{{0}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config),
      trace_of({Request{0.0, 0}, Request{1.0, 0}}, 41.0));
  // 1 unit at 0.5/100 + 40 units at 1/100, over 41 units.
  EXPECT_NEAR(result.mean_imbalance_capacity, (0.005 + 40 * 0.01) / 41.0,
              1e-9);
}

TEST(Simulator, CapacityNormalizedImbalanceGrowsWithLoadUnlikeEq2) {
  // Eq. 2 stays at 1.0 for this skewed layout regardless of volume, while
  // the capacity-normalized excess scales with the offered load — the
  // distinction behind Figure 6's rise-peak-fall shape.
  const Layout layout{{0}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  std::vector<Request> light{Request{0.0, 0}};
  std::vector<Request> heavy;
  for (int i = 0; i < 20; ++i) heavy.push_back(Request{0.0, 0});
  const SimResult r_light =
      simulate(ReplicatedPolicy(layout, config), trace_of(light, 50.0));
  const SimResult r_heavy =
      simulate(ReplicatedPolicy(layout, config), trace_of(heavy, 50.0));
  EXPECT_NEAR(r_light.mean_imbalance_eq2, r_heavy.mean_imbalance_eq2, 1e-9);
  EXPECT_GT(r_heavy.mean_imbalance_capacity,
            5.0 * r_light.mean_imbalance_capacity);
}

TEST(Simulator, UtilizationMatchesHandComputation) {
  const Layout layout{{0}};
  // One stream of duration 10 on a 2-stream server over a 40-unit window:
  // busy integral = rate * 10, capacity integral = 2 * rate * 40 -> 0.125.
  SimConfig config = basic_config(1, 2 * kRate, 10.0);
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config), trace_of({Request{0.0, 0}}, 40.0));
  EXPECT_NEAR(result.utilization_per_server[0], 0.125, 1e-9);
}

TEST(Simulator, ConservationServedPlusRejectedEqualsTotal) {
  const Layout layout{{0}, {1}, {0, 1}};
  std::vector<Request> requests;
  for (int i = 0; i < 200; ++i) {
    requests.push_back(
        Request{static_cast<double>(i) * 0.4, static_cast<std::size_t>(i % 3)});
  }
  SimConfig config = basic_config(2, 5 * kRate, 30.0);
  const SimResult result =
      simulate(ReplicatedPolicy(layout, config), trace_of(requests, 90.0));
  const std::size_t served = std::accumulate(
      result.served_per_server.begin(), result.served_per_server.end(),
      std::size_t{0});
  EXPECT_EQ(served + result.rejected, result.total_requests);
}

TEST(Simulator, RedirectionReducesRejections) {
  // Video 0 has replicas on both servers; static RR sends odd arrivals to a
  // server kept busy by video 1, so redirection strictly helps.
  const Layout layout{{0, 1}, {1}};
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(Request{0.1 * i, 1});  // fill server 1 with video 1
  }
  for (int i = 0; i < 6; ++i) {
    requests.push_back(Request{0.5 + i, 0});
  }
  SimConfig strict = basic_config(2, 4 * kRate, 1000.0);
  SimConfig redirect = strict;
  redirect.redirect = RedirectMode::kOtherHolders;
  redirect.backbone_bps = units::gbps(1);
  const SimResult r_strict =
      simulate(ReplicatedPolicy(layout, strict), trace_of(requests, 50.0));
  const SimResult r_redirect =
      simulate(ReplicatedPolicy(layout, redirect), trace_of(requests, 50.0));
  EXPECT_GT(r_strict.rejected, r_redirect.rejected);
  EXPECT_GT(r_redirect.redirected, 0u);
}

TEST(Simulator, AbandonedStreamsReleaseBandwidthEarly) {
  const Layout layout{{0}};
  // Capacity one stream; duration 100.  The first viewer abandons at 10% of
  // the video, so a request at t=15 is admitted; without abandonment it
  // would be rejected.
  SimConfig config = basic_config(1, kRate, 100.0);
  RequestTrace trace;
  trace.horizon = 50.0;
  trace.requests = {Request{0.0, 0, 0.1}, Request{15.0, 0, 1.0}};
  const SimResult result = simulate(ReplicatedPolicy(layout, config), trace);
  EXPECT_EQ(result.rejected, 0u);

  RequestTrace full = trace;
  full.requests[0].watch_fraction = 1.0;
  const SimResult result_full =
      simulate(ReplicatedPolicy(layout, config), full);
  EXPECT_EQ(result_full.rejected, 1u);
}

TEST(Simulator, FailureDisruptsOnlyLocalStreams) {
  const Layout layout{{0}, {1}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  config.failures = {ServerFailure{5.0, 0}};
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config),
      trace_of({Request{0.0, 0}, Request{1.0, 1}, Request{2.0, 0}}, 50.0));
  EXPECT_EQ(result.disrupted, 2u);  // the two streams on server 0
  EXPECT_EQ(result.rejected, 0u);
}

TEST(Simulator, FailedServerRejectsItsShareOfRequests) {
  // Single-replica video on the failed server: every later request for it
  // is rejected; the co-hosted video with a surviving replica is fine.
  const Layout layout{{0}, {0, 1}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  config.failures = {ServerFailure{1.0, 0}};
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) requests.push_back(Request{2.0 + i, 0});
  for (int i = 0; i < 4; ++i) requests.push_back(Request{6.0 + i, 1});
  const SimResult result =
      simulate(ReplicatedPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 4u + 2u);  // all of video 0, RR half of video 1
}

TEST(Simulator, RedirectionRecoversFailedServerTraffic) {
  const Layout layout{{0, 1}};
  SimConfig config = basic_config(2, 100 * kRate, 1000.0);
  config.redirect = RedirectMode::kOtherHolders;
  config.failures = {ServerFailure{1.0, 0}};
  std::vector<Request> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Request{2.0 + i, 0});
  const SimResult result =
      simulate(ReplicatedPolicy(layout, config), trace_of(requests, 50.0));
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.redirected, 3u);  // the RR picks of the dead server
}

TEST(Simulator, ProxyRequiresALivingHolder) {
  const Layout layout{{0}};
  SimConfig config = basic_config(3, 100 * kRate, 1000.0);
  config.redirect = RedirectMode::kBackboneProxy;
  config.backbone_bps = units::gbps(10);
  config.failures = {ServerFailure{1.0, 0}};
  const SimResult result = simulate(
      ReplicatedPolicy(layout, config), trace_of({Request{2.0, 0}}, 50.0));
  // Servers 1 and 2 have idle links, but the only copy of the data died
  // with server 0.
  EXPECT_EQ(result.rejected, 1u);
}

TEST(Simulator, UnsortedFailuresRejected) {
  const Layout layout{{0}};
  SimConfig config = basic_config(2);
  config.failures = {ServerFailure{5.0, 0}, ServerFailure{1.0, 1}};
  EXPECT_THROW(
      (void)simulate(ReplicatedPolicy(layout, config), trace_of({}, 50.0)),
      InvalidArgumentError);
}

TEST(Simulator, RejectsMalformedTrace) {
  const Layout layout{{0}};
  RequestTrace bad = trace_of({Request{5.0, 0}, Request{1.0, 0}}, 50.0);
  EXPECT_THROW((void)simulate(ReplicatedPolicy(layout, basic_config(1)), bad),
               InvalidArgumentError);
}

TEST(Simulator, ConfigValidation) {
  SimConfig config;  // all zero
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config = basic_config();
  EXPECT_NO_THROW(config.validate());
}

// ---- the borrowed timeline and event log ----

/// Four servers of three streams, a crash at t = 90 and about 100 requests
/// over 200 s for 40 s videos: departures, rejections and a disruption all
/// land inside the horizon.
struct ObservedWorld {
  SimConfig config = basic_config(4, 3 * kRate, 40.0);
  Layout layout{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  RequestTrace trace;

  ObservedWorld() {
    config.failures = {ServerFailure{90.0, 2}};
    TraceSpec spec;
    spec.arrival_rate = 0.5;
    spec.horizon = 200.0;
    spec.popularity = zipf_popularity(5, 0.75);
    Rng rng(0x5eed0009);
    trace = generate_trace(rng, spec);
  }
};

TEST(Simulator, SimulateIsOneEngineRun) {
  // simulate() replays the whole trace on one SimEngine built from the
  // policy's config: result, timeline and event log equal a hand-driven
  // run's bit for bit.  The 0.25 s interval compacts the timeline, and the
  // event log keeps only its first 40 records.
  const ObservedWorld world;
  const std::size_t n = world.config.num_servers;
  obs::TimeseriesCollector run_timeline({0.25}, n);
  obs::EventLog run_log(40);
  SimEngine engine(world.config);
  engine.attach_timeline(&run_timeline);
  engine.attach_event_log(&run_log);
  ReplicatedPolicy policy(world.layout, world.config);
  const SimResult expected = engine.run(policy, world.trace);

  obs::TimeseriesCollector timeline({0.25}, n);
  obs::EventLog log(40);
  const SimResult result =
      simulate(ReplicatedPolicy(world.layout, world.config), world.trace,
               {&timeline, &log});
  EXPECT_EQ(result, expected);
  EXPECT_GT(result.rejected, 0u);
  EXPECT_GT(result.disrupted, 0u);
  EXPECT_GT(timeline.downsample_factor(), 1u);
  EXPECT_EQ(timeline.downsample_factor(), run_timeline.downsample_factor());
  EXPECT_EQ(timeline.samples(), run_timeline.samples());
  EXPECT_GT(log.dropped(), 0u);
  EXPECT_EQ(log.seen(), run_log.seen());
  EXPECT_EQ(log.dropped(), run_log.dropped());
  EXPECT_EQ(log.records(), run_log.records());
}

TEST(Simulator, SecondReplayAppendsIntoOffsetCollectors) {
  // What vodrep_plan --online-epochs does: two replays append into one
  // timeline and event log, the second at a time offset of one horizon.
  // The collectors never change a result, and the second epoch's samples
  // and records are the first's, shifted by the horizon: the 1 s grid
  // divides the horizon, and 401 samples need no compaction.
  const ObservedWorld world;
  const double horizon = world.trace.horizon;
  const SimResult alone =
      simulate(ReplicatedPolicy(world.layout, world.config), world.trace);
  obs::TimeseriesCollector timeline({1.0}, world.config.num_servers);
  obs::EventLog log(2 * world.trace.size());
  std::size_t first_samples = 0;
  for (const double offset : {0.0, horizon}) {
    timeline.set_time_offset(offset);
    log.set_time_offset(offset);
    EXPECT_EQ(simulate(ReplicatedPolicy(world.layout, world.config),
                       world.trace, {&timeline, &log}),
              alone);
    if (offset == 0.0) first_samples = timeline.size();
  }
  ASSERT_EQ(timeline.downsample_factor(), 1u);
  ASSERT_EQ(timeline.size(), 2 * first_samples - 1);
  for (std::size_t i = first_samples; i < timeline.size(); ++i) {
    obs::TimeSample shifted = timeline.sample(i - first_samples + 1);
    shifted.time += horizon;
    EXPECT_TRUE(timeline.sample(i) == shifted) << "sample " << i;
  }
  const std::size_t n = world.trace.size();
  ASSERT_EQ(log.records().size(), 2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    obs::RequestRecord shifted = log.records()[k];
    shifted.arrival_time += horizon;
    EXPECT_EQ(log.records()[n + k], shifted) << "record " << k;
  }
}

TEST(Simulator, TimelineSizedForAnotherServerCountIsRejected) {
  // Every sample copies all N utilizations into the collector, so one
  // built for fewer servers would be written past its end.
  const ObservedWorld world;
  obs::TimeseriesCollector timeline({1.0}, world.config.num_servers - 1);
  EXPECT_THROW(
      (void)simulate(ReplicatedPolicy(world.layout, world.config), world.trace,
                     {&timeline, nullptr}),
      InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
