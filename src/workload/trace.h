// Request traces: a materialized sequence of (arrival time, video id)
// requests for one peak period.
//
// Traces decouple workload generation from simulation: the same trace can be
// replayed against different layouts/dispatch policies (the Figure 5 and 6
// comparisons hold the workload fixed across algorithm combinations, which
// sharpens the contrasts), and traces can be saved/loaded as text for
// external analysis.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "src/util/rng.h"
#include "src/workload/sampler.h"

namespace vodrep {

/// One client request for a video stream.
struct Request {
  double arrival_time = 0.0;  ///< seconds from the start of the peak period
  std::size_t video = 0;      ///< popularity-rank index of the requested video
  /// Fraction of the video the client actually watches in (0, 1]; 1.0 is
  /// the paper's whole-video model, smaller values model viewers who
  /// abandon early and release their bandwidth sooner.
  double watch_fraction = 1.0;

  friend bool operator==(const Request&, const Request&) = default;
};

/// An ordered (by arrival time) sequence of requests.
struct RequestTrace {
  std::vector<Request> requests;
  double horizon = 0.0;  ///< peak-period length in seconds

  [[nodiscard]] std::size_t size() const { return requests.size(); }
  [[nodiscard]] bool empty() const { return requests.empty(); }

  /// Per-video request counts over `num_videos` videos (ids beyond the range
  /// throw).  Useful for computing empirical popularity.
  [[nodiscard]] std::vector<std::size_t> video_counts(
      std::size_t num_videos) const;

  /// True when arrival times are non-decreasing and within [0, horizon).
  [[nodiscard]] bool is_well_formed() const;
};

/// Viewer-abandonment model: with probability `completion_probability` the
/// client watches the whole video; otherwise it abandons at a uniformly
/// random point in [min_partial_fraction, 1).  The default (always
/// complete) reproduces the paper's whole-video assumption.
struct AbandonmentModel {
  double completion_probability = 1.0;
  double min_partial_fraction = 0.05;

  void validate() const;
};

/// Generation parameters for a synthetic trace.
struct TraceSpec {
  double arrival_rate = 0.0;  ///< requests per second
  double horizon = 0.0;       ///< peak-period length in seconds
  std::vector<double> popularity;  ///< video-choice distribution (rank order)
  AbandonmentModel abandonment;    ///< watch-fraction model
};

/// Raw draws per block of generate_trace's Poisson arrival times
/// (poisson_arrivals_block).  Purely a throughput constant: the generated
/// trace and the generator state afterwards are bit-identical for every
/// block size.
inline constexpr std::size_t kArrivalBlock = 256;

/// Generates one Poisson/Zipf trace realization.  Deterministic in `rng`.
[[nodiscard]] RequestTrace generate_trace(Rng& rng, const TraceSpec& spec);

/// Serializes a trace as lines of "arrival_time video_id" preceded by a
/// header line "vodrep-trace <n> <horizon>".
void save_trace(std::ostream& os, const RequestTrace& trace);

/// Parses the save_trace format.  Throws InvalidArgumentError on malformed
/// input.
[[nodiscard]] RequestTrace load_trace(std::istream& is);

}  // namespace vodrep
