// Request arrival processes.
//
// The paper generates request arrivals in the peak period by a Poisson
// process with rate lambda.  PoissonArrivals produces the event times of one
// realization; deterministic given the Rng.  A constant-rate process is also
// provided for deterministic stress tests and for the "perfectly balanced
// traffic would never reject below capacity" analysis in Section 5.3.
#pragma once

#include <cstddef>
#include <vector>

#include "src/util/rng.h"

namespace vodrep {

/// Largest expected arrival count, rate × horizon, that the Poisson
/// generators accept.  It is far above any run here (a simulated month is
/// about 766k requests), and below it the generators' reserve is a defined
/// size_t and the loop ends in bounded time.
inline constexpr double kMaxExpectedArrivals = 1e9;

/// Arrival slots reserved for one realization of the Poisson process:
/// rate × horizon plus 20% and 16, so a realization almost never regrows its
/// buffer.  generate_trace sizes its request buffer by it too, so every trace
/// of one spec asks the allocator for the same block and fits where the last
/// one was freed; sized by its own count, a longer trace did not fit the
/// hole a shorter one left and grew the heap instead.  Requires rate ×
/// horizon <= kMaxExpectedArrivals.
[[nodiscard]] std::size_t poisson_arrivals_capacity(double rate,
                                                    double horizon);

/// One realization of a homogeneous Poisson process: strictly increasing
/// arrival times in [0, horizon).  `rate` is in events per unit time (the
/// simulator uses seconds).  rate == 0 yields no arrivals; an infinite or
/// NaN rate or horizon, or rate × horizon above kMaxExpectedArrivals,
/// throws InvalidArgumentError.
[[nodiscard]] std::vector<double> poisson_arrivals(Rng& rng, double rate,
                                                   double horizon);

/// Block-generated realization of the same process: draws `block` raw u64s
/// at a time, transforms them to exponential gaps in a separate (auto-
/// vectorizable) loop, and prefix-scans the gaps into arrival times.  The
/// output AND the generator's state afterwards are bit-for-bit identical to
/// poisson_arrivals for every block size — the transform reproduces
/// Rng::exponential's expression exactly, the scan adds gaps in the same
/// order, and when the running time crosses the horizon mid-block the
/// generator is restored from a snapshot and re-advanced by exactly the
/// number of draws the per-event loop would have consumed (one per gap,
/// crossing draw included).  Asserted by tests/arrival_batching_test.cc.
/// Requires block >= 1.
[[nodiscard]] std::vector<double> poisson_arrivals_block(Rng& rng, double rate,
                                                         double horizon,
                                                         std::size_t block);

/// Deterministic, evenly spaced arrivals at exactly `rate` events per unit
/// time over [0, horizon).  The k-th arrival is at (k + 0.5)/rate so no event
/// coincides with the horizon boundary.
[[nodiscard]] std::vector<double> uniform_arrivals(double rate, double horizon);

}  // namespace vodrep
