// O(1) sampling from a fixed discrete distribution (Vose's alias method).
//
// The simulator draws a video index for every request; with hundreds of
// thousands of requests per sweep the alias method keeps workload generation
// negligible next to the event processing itself.  Trace generation builds
// one table per trace, so at a million videos the construction itself is a
// visible share of a pass: it works in place in the threshold array and one
// 32-bit worklist, with no normalized copy of the input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"

namespace vodrep {

/// Immutable discrete sampler over indices [0, n) with given probabilities.
class DiscreteSampler {
 public:
  /// Builds the alias tables from `probabilities`.  The input must be a
  /// non-empty vector of fewer than 2^32 non-negative values with a positive
  /// sum; it is normalized internally.
  explicit DiscreteSampler(const std::vector<double>& probabilities);

  /// Number of outcomes.
  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  /// Draws one index distributed according to the input probabilities.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// The normalized probability of outcome `i`, read back from the tables
  /// in O(n) (for tests/diagnostics).
  [[nodiscard]] double probability(std::size_t i) const;

  /// The alias tables: bucket b keeps b with probability thresholds()[b],
  /// otherwise yields aliases()[b].
  [[nodiscard]] std::span<const double> thresholds() const { return prob_; }
  [[nodiscard]] std::span<const std::uint32_t> aliases() const {
    return alias_;
  }

 private:
  std::vector<double> prob_;  // acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;
};

}  // namespace vodrep
