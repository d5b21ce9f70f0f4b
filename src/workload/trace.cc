#include "src/workload/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/util/error.h"
#include "src/workload/arrivals.h"

namespace vodrep {

namespace {

// The header's request count is outside input: the reader reserves at most
// this many up front and grows with the lines actually present, so a forged
// count fails as a truncated body instead of sizing the buffer.
constexpr std::size_t kReserveCap = 4096;

}  // namespace

std::vector<std::size_t> RequestTrace::video_counts(
    std::size_t num_videos) const {
  std::vector<std::size_t> counts(num_videos, 0);
  for (const Request& r : requests) {
    require(r.video < num_videos, "RequestTrace::video_counts: video id out of range");
    ++counts[r.video];
  }
  return counts;
}

bool RequestTrace::is_well_formed() const {
  double prev = 0.0;
  for (const Request& r : requests) {
    if (r.arrival_time < prev || r.arrival_time >= horizon) return false;
    prev = r.arrival_time;
  }
  return true;
}

void AbandonmentModel::validate() const {
  require(completion_probability >= 0.0 && completion_probability <= 1.0,
          "AbandonmentModel: completion probability must be in [0, 1]");
  require(min_partial_fraction > 0.0 && min_partial_fraction < 1.0,
          "AbandonmentModel: min partial fraction must be in (0, 1)");
}

RequestTrace generate_trace(Rng& rng, const TraceSpec& spec) {
  require(!spec.popularity.empty(), "generate_trace: empty popularity vector");
  spec.abandonment.validate();
  RequestTrace trace;
  trace.horizon = spec.horizon;
  // Arrival times are drawn en bloc before any per-request draws, so the
  // block-generated process (bit-identical output and RNG consumption at
  // every block size) leaves the whole trace unchanged.
  const std::vector<double> times = poisson_arrivals_block(
      rng, spec.arrival_rate, spec.horizon, kArrivalBlock);
  const DiscreteSampler sampler(spec.popularity);
  // Sized by the spec, not by this realization's count.
  trace.requests.reserve(std::max(
      times.size(),
      poisson_arrivals_capacity(spec.arrival_rate, spec.horizon)));
  for (double t : times) {
    Request request;
    request.arrival_time = t;
    request.video = sampler.sample(rng);
    if (!rng.bernoulli(spec.abandonment.completion_probability)) {
      request.watch_fraction =
          rng.uniform(spec.abandonment.min_partial_fraction, 1.0);
    }
    trace.requests.push_back(request);
  }
  return trace;
}

void save_trace(std::ostream& os, const RequestTrace& trace) {
  os.precision(17);  // lossless double round-trip for times and fractions
  os << "vodrep-trace " << trace.requests.size() << " " << trace.horizon << "\n";
  for (const Request& r : trace.requests) {
    os << r.arrival_time << " " << r.video << " " << r.watch_fraction << "\n";
  }
}

RequestTrace load_trace(std::istream& is) {
  std::string magic;
  std::size_t count = 0;
  RequestTrace trace;
  is >> magic >> count >> trace.horizon;
  require(static_cast<bool>(is) && magic == "vodrep-trace",
          "load_trace: missing vodrep-trace header");
  trace.requests.reserve(std::min(count, kReserveCap));
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    is >> r.arrival_time >> r.video >> r.watch_fraction;
    require(static_cast<bool>(is), "load_trace: truncated trace body");
    require(r.watch_fraction > 0.0 && r.watch_fraction <= 1.0,
            "load_trace: watch fraction out of (0, 1]");
    trace.requests.push_back(r);
  }
  return trace;
}

}  // namespace vodrep
