#include "src/workload/arrivals.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/util/error.h"

namespace vodrep {

std::size_t poisson_arrivals_capacity(double rate, double horizon) {
  return static_cast<std::size_t>(rate * horizon * 1.2) + 16;
}

std::vector<double> poisson_arrivals(Rng& rng, double rate, double horizon) {
  // An infinite rate makes every gap 0 and an infinite horizon never ends:
  // either way the loop below would grow `times` without bound.
  require(std::isfinite(rate) && rate >= 0.0,
          "poisson_arrivals: rate must be finite and non-negative");
  require(std::isfinite(horizon) && horizon >= 0.0,
          "poisson_arrivals: horizon must be finite and non-negative");
  std::vector<double> times;
  if (rate == 0.0 || horizon == 0.0) return times;
  require(rate * horizon <= kMaxExpectedArrivals,
          "poisson_arrivals: expected arrival count rate x horizon exceeds "
          "kMaxExpectedArrivals (1e9)");
  times.reserve(poisson_arrivals_capacity(rate, horizon));
  double t = rng.exponential(rate);
  while (t < horizon) {
    times.push_back(t);
    t += rng.exponential(rate);
  }
  return times;
}

std::vector<double> poisson_arrivals_block(Rng& rng, double rate,
                                           double horizon, std::size_t block) {
  require(std::isfinite(rate) && rate >= 0.0,
          "poisson_arrivals_block: rate must be finite and non-negative");
  require(std::isfinite(horizon) && horizon >= 0.0,
          "poisson_arrivals_block: horizon must be finite and non-negative");
  require(block >= 1, "poisson_arrivals_block: block size must be >= 1");
  std::vector<double> times;
  if (rate == 0.0 || horizon == 0.0) return times;
  require(rate * horizon <= kMaxExpectedArrivals,
          "poisson_arrivals_block: expected arrival count rate x horizon "
          "exceeds kMaxExpectedArrivals (1e9)");
  times.reserve(poisson_arrivals_capacity(rate, horizon));
  std::vector<std::uint64_t> raw(block);
  std::vector<double> gaps(block);
  double t = 0.0;
  for (;;) {
    // Snapshot so a mid-block horizon crossing can rewind to the exact
    // generator state the per-event loop would leave behind (Rng is four
    // u64 words; copying it is cheaper than branching inside the block).
    const Rng snapshot = rng;
    for (std::size_t i = 0; i < block; ++i) raw[i] = rng.next_u64();
    // Exactly Rng::exponential(rate) == -log1p(-uniform()) / rate with
    // uniform() == (next_u64() >> 11) * 2^-53; element-wise, no
    // cross-iteration dependence, so the compiler may vectorize freely.
    for (std::size_t i = 0; i < block; ++i) {
      gaps[i] = -std::log1p(-(static_cast<double>(raw[i] >> 11) * 0x1.0p-53)) /
                rate;
    }
    for (std::size_t i = 0; i < block; ++i) {
      t += gaps[i];
      if (t >= horizon) {
        // The per-event loop stops after the crossing draw, having consumed
        // i + 1 u64s of this block; rewind and replay exactly those.
        rng = snapshot;
        for (std::size_t k = 0; k <= i; ++k) (void)rng.next_u64();
        return times;
      }
      times.push_back(t);
    }
  }
}

std::vector<double> uniform_arrivals(double rate, double horizon) {
  require(rate >= 0.0, "uniform_arrivals: rate must be non-negative");
  require(horizon >= 0.0, "uniform_arrivals: horizon must be non-negative");
  std::vector<double> times;
  if (rate == 0.0 || horizon == 0.0) return times;
  const auto count = static_cast<std::size_t>(std::floor(rate * horizon));
  times.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    times.push_back((static_cast<double>(k) + 0.5) / rate);
  }
  return times;
}

}  // namespace vodrep
