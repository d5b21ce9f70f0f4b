#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/arrivals.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TraceSpec paper_like_spec(double rate_per_min = 20.0) {
  TraceSpec spec;
  spec.arrival_rate = units::per_minute(rate_per_min);
  spec.horizon = units::minutes(90);
  spec.popularity = zipf_popularity(50, 0.75);
  return spec;
}

TEST(GenerateTrace, ProducesWellFormedTrace) {
  Rng rng(1);
  const RequestTrace trace = generate_trace(rng, paper_like_spec());
  EXPECT_TRUE(trace.is_well_formed());
  EXPECT_DOUBLE_EQ(trace.horizon, units::minutes(90));
  EXPECT_GT(trace.size(), 0u);
}

TEST(GenerateTrace, RequestVolumeMatchesRate) {
  Rng rng(2);
  double total = 0.0;
  const int reps = 50;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<double>(generate_trace(rng, paper_like_spec(20)).size());
  }
  // 20 req/min over 90 min = 1800 expected requests.
  EXPECT_NEAR(total / reps, 1800.0, 30.0);
}

TEST(GenerateTrace, VideoChoicesFollowPopularity) {
  Rng rng(3);
  TraceSpec spec = paper_like_spec(400.0);  // dense trace for tight stats
  const RequestTrace trace = generate_trace(rng, spec);
  const auto counts = trace.video_counts(spec.popularity.size());
  const auto total = static_cast<double>(trace.size());
  EXPECT_NEAR(static_cast<double>(counts[0]) / total, spec.popularity[0], 0.01);
  EXPECT_NEAR(static_cast<double>(counts[5]) / total, spec.popularity[5], 0.01);
}

TEST(GenerateTrace, DeterministicGivenSeed) {
  Rng a(4);
  Rng b(4);
  const auto t1 = generate_trace(a, paper_like_spec());
  const auto t2 = generate_trace(b, paper_like_spec());
  EXPECT_EQ(t1.requests, t2.requests);
}

TEST(GenerateTrace, BufferSizeDependsOnTheSpecAlone) {
  // Every trace of one spec reserves the same request buffer, so a run that
  // replaces one trace with the next can reuse its memory.
  Rng rng(6);
  const TraceSpec spec = paper_like_spec();
  const RequestTrace a = generate_trace(rng, spec);
  const RequestTrace b = generate_trace(rng, spec);
  ASSERT_NE(a.size(), b.size());
  const std::size_t capacity =
      poisson_arrivals_capacity(spec.arrival_rate, spec.horizon);
  EXPECT_EQ(a.requests.capacity(), capacity);
  EXPECT_EQ(b.requests.capacity(), capacity);
}

TEST(GenerateTrace, EmptyPopularityThrows) {
  Rng rng(5);
  TraceSpec spec;
  spec.arrival_rate = 1.0;
  spec.horizon = 10.0;
  EXPECT_THROW((void)generate_trace(rng, spec), InvalidArgumentError);
}

TEST(RequestTrace, VideoCountsRejectOutOfRangeIds) {
  RequestTrace trace;
  trace.horizon = 10.0;
  trace.requests.push_back(Request{1.0, 5});
  EXPECT_THROW((void)trace.video_counts(3), InvalidArgumentError);
}

TEST(RequestTrace, WellFormedDetectsViolations) {
  RequestTrace trace;
  trace.horizon = 10.0;
  trace.requests = {Request{1.0, 0}, Request{2.0, 1}};
  EXPECT_TRUE(trace.is_well_formed());
  trace.requests = {Request{2.0, 0}, Request{1.0, 1}};  // out of order
  EXPECT_FALSE(trace.is_well_formed());
  trace.requests = {Request{11.0, 0}};  // beyond horizon
  EXPECT_FALSE(trace.is_well_formed());
}

TEST(GenerateTrace, DefaultModelWatchesEverything) {
  Rng rng(21);
  const RequestTrace trace = generate_trace(rng, paper_like_spec());
  for (const Request& r : trace.requests) {
    EXPECT_DOUBLE_EQ(r.watch_fraction, 1.0);
  }
}

TEST(GenerateTrace, AbandonmentProducesPartialWatches) {
  Rng rng(22);
  TraceSpec spec = paper_like_spec(100.0);
  spec.abandonment.completion_probability = 0.4;
  spec.abandonment.min_partial_fraction = 0.1;
  const RequestTrace trace = generate_trace(rng, spec);
  std::size_t partial = 0;
  for (const Request& r : trace.requests) {
    EXPECT_GT(r.watch_fraction, 0.0);
    EXPECT_LE(r.watch_fraction, 1.0);
    if (r.watch_fraction < 1.0) {
      EXPECT_GE(r.watch_fraction, 0.1);
      ++partial;
    }
  }
  // Roughly 60% abandon.
  const double frac =
      static_cast<double>(partial) / static_cast<double>(trace.size());
  EXPECT_NEAR(frac, 0.6, 0.05);
}

TEST(AbandonmentModel, ValidatesParameters) {
  AbandonmentModel model;
  EXPECT_NO_THROW(model.validate());
  model.completion_probability = 1.5;
  EXPECT_THROW(model.validate(), InvalidArgumentError);
  model.completion_probability = 0.5;
  model.min_partial_fraction = 0.0;
  EXPECT_THROW(model.validate(), InvalidArgumentError);
}

TEST(TraceSerialization, WatchFractionsRoundTrip) {
  Rng rng(23);
  TraceSpec spec = paper_like_spec();
  spec.abandonment.completion_probability = 0.5;
  const RequestTrace original = generate_trace(rng, spec);
  std::stringstream ss;
  save_trace(ss, original);
  const RequestTrace loaded = load_trace(ss);
  EXPECT_EQ(loaded.requests, original.requests);
}

TEST(TraceSerialization, RejectsOutOfRangeWatchFraction) {
  std::stringstream ss("vodrep-trace 1 10\n0.5 0 1.5\n");
  EXPECT_THROW((void)load_trace(ss), InvalidArgumentError);
}

TEST(TraceSerialization, RoundTripsExactly) {
  Rng rng(6);
  const RequestTrace original = generate_trace(rng, paper_like_spec());
  std::stringstream ss;
  save_trace(ss, original);
  const RequestTrace loaded = load_trace(ss);
  EXPECT_EQ(loaded.horizon, original.horizon);
  EXPECT_EQ(loaded.requests, original.requests);
}

TEST(TraceSerialization, RejectsBadHeader) {
  std::stringstream ss("not-a-trace 1 10\n0.5 0\n");
  EXPECT_THROW((void)load_trace(ss), InvalidArgumentError);
}

TEST(TraceSerialization, RejectsTruncatedBody) {
  // The second header claims 2^40 requests: the reader must not size its
  // buffer from that count, so it fails on the missing body instead.
  for (const char* text : {"vodrep-trace 3 10\n0.5 0\n",
                           "vodrep-trace 1099511627776 5400\n0.5 0 1\n"}) {
    std::stringstream ss(text);
    try {
      (void)load_trace(ss);
      FAIL() << "accepted " << text;
    } catch (const InvalidArgumentError& error) {
      EXPECT_STREQ(error.what(), "load_trace: truncated trace body");
    }
  }
}

TEST(TraceSerialization, EmptyTraceRoundTrips) {
  RequestTrace empty;
  empty.horizon = 42.0;
  std::stringstream ss;
  save_trace(ss, empty);
  const RequestTrace loaded = load_trace(ss);
  EXPECT_TRUE(loaded.empty());
  EXPECT_DOUBLE_EQ(loaded.horizon, 42.0);
}

}  // namespace
}  // namespace vodrep
