// Hook-free baselines for the hot-path overhead guards.
//
// bench/CMakeLists.txt compiles obs_baseline.cc together with the library's
// src/sim/engine.cc and src/sim/replicated_policy.cc a second time with
// VODREP_NO_OBS_HOOKS, which also strips the trace scopes from
// src/anneal/annealer.h and src/anneal/parallel_tempering.h
// (src/obs/hooks.h).  replay_without_hooks and
// anneal_without_hooks are that build's entry points.  Their signatures use
// only types both builds share, so vodrep_sim_hotpath and vodrep_sa_hotpath
// call them next to the library and time both in one process with
// time_paired.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "src/anneal/annealer.h"
#include "src/core/layout.h"
#include "src/core/sa_solver.h"
#include "src/sim/engine.h"
#include "src/workload/trace.h"

namespace vodrep {

/// SimEngine::run of a ReplicatedPolicy over `trace`, built without hooks.
[[nodiscard]] SimResult replay_without_hooks(const Layout& layout,
                                             const SimConfig& config,
                                             const RequestTrace& trace);

/// anneal_parallel_tempering(problem, seed, 1, options), the one chain
/// solve_scalable runs at chains = 1, built without hooks.
[[nodiscard]] AnnealResult<ScalableSolution> anneal_without_hooks(
    const ScalableSaProblem& problem, std::uint64_t seed,
    const AnnealOptions& options);

/// The guards' timing discipline: times `side0` against `side1`, two runs
/// of the same work.  Every rep runs both back to back and swaps which goes
/// first from one rep to the next, so a change in host speed lands on both
/// sides alike; each side keeps its fastest rep in `best_seconds`, which
/// carries across calls.  Reps continue until both sides together have run
/// `min_total_sec` (and at least three reps) or `max_reps` reps.
template <typename Side0, typename Side1>
void time_paired(Side0&& side0, Side1&& side1, double min_total_sec,
                 std::size_t max_reps, std::array<double, 2>& best_seconds) {
  double total = 0.0;
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t side = k ^ (rep % 2);
      const auto start = std::chrono::steady_clock::now();
      if (side == 0) {
        side0();
      } else {
        side1();
      }
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      best_seconds[side] = std::min(best_seconds[side], seconds);
      total += seconds;
    }
    if (total >= min_total_sec && rep >= 2) break;
  }
}

}  // namespace vodrep
