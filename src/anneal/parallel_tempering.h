// Parallel tempering (replica exchange) on top of the AnnealChain engine.
//
// K Metropolis chains run the same problem at staggered initial temperatures
// (chain k starts at T0 * temperature_spread^k).  Every `swap_period`
// temperature steps the chains synchronize and adjacent pairs attempt a
// replica exchange under the standard Metropolis rule for minimization:
//
//   A = min(1, exp((1/T_i - 1/T_j) * (C_i - C_j)))
//
// so a hotter chain that stumbled onto a better configuration hands it down
// the ladder with probability 1, while the reverse hand-up is throttled by
// the temperature gap.  Hot chains thus keep jumping barriers the cold
// chains cannot cross, and the cold chains refine whatever percolates down.
//
// Determinism: each chain owns its Rng, seeded from (base_seed, chain
// index), and advances it only inside its own superstep; the exchange phase
// runs serially on the caller thread with a dedicated swap Rng that draws
// exactly one uniform per attempted pair.  The reduction picks the minimum
// best cost with ties broken by lowest chain index.  The result is therefore
// bit-identical for a fixed (seed, chains, swap_period) regardless of
// thread-pool size or scheduling — chains never share mutable state, and
// the swap phase is a barrier.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/anneal/annealer.h"
#include "src/obs/trace.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace vodrep {

/// Deterministic per-chain seed.  Chain 0 reuses `base_seed` verbatim so a
/// one-chain tempering run reproduces anneal(problem, Rng(base_seed), ...)
/// bit for bit (the K=1 equivalence tests pin this).
[[nodiscard]] inline std::uint64_t pt_chain_seed(std::uint64_t base_seed,
                                                 std::size_t chain) {
  return base_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(chain));
}

/// The replica-exchange bookkeeping: the dedicated swap Rng and the
/// attempt/accept counters.  Determinism requires that this state advance
/// only inside the serial exchange phase, in ladder order — never from a
/// chain superstep racing on the pool.  The members are therefore guarded by
/// an annotated mutex (uncontended: the exchange phase is a barrier, so the
/// lock costs one uncontended acquire per attempted pair) and the clang
/// -Werror=thread-safety lanes reject any future access that bypasses it.
class ExchangeLedger {
 public:
  explicit ExchangeLedger(std::uint64_t swap_seed) : rng_(swap_seed) {}

  /// Metropolis admission for one attempted pair.  Counts the attempt and
  /// draws exactly one uniform — even on the exponent >= 0 fast path — so
  /// the swap stream stays independent of the chains' costs.
  [[nodiscard]] bool admit(double exponent) VODREP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ++attempts_;
    const double u = rng_.uniform();
    if (exponent >= 0.0 || u < std::exp(exponent)) {
      ++accepts_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t attempts() const VODREP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return attempts_;
  }
  [[nodiscard]] std::size_t accepts() const VODREP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return accepts_;
  }

 private:
  mutable Mutex mutex_;
  Rng rng_ VODREP_GUARDED_BY(mutex_);
  std::size_t attempts_ VODREP_GUARDED_BY(mutex_) = 0;
  std::size_t accepts_ VODREP_GUARDED_BY(mutex_) = 0;
};

// Drives AnnealChain, so it lives in the hook-free build's namespace too.
VODREP_OBS_HOOKS_NS_BEGIN

/// Runs `num_chains` tempering chains (on `pool` when provided) and returns
/// the deterministic reduction: minimum best cost, ties to the lowest chain
/// index.  Top-level move counters aggregate across chains;
/// `temperature_steps`, `final_temperature`, and `trajectory` are the
/// winning chain's own, and `chains` holds every chain's stats.
template <AnnealProblem P>
[[nodiscard]] AnnealResult<typename P::State> anneal_parallel_tempering(
    const P& problem, std::uint64_t base_seed, std::size_t num_chains,
    const AnnealOptions& options = {}, ThreadPool* pool = nullptr) {
  const std::size_t k = num_chains;
  require(k >= 1, "anneal_parallel_tempering: need at least one chain");
  require(options.swap_period >= 1,
          "anneal_parallel_tempering: swap_period must be positive");
  require(options.temperature_spread >= 1.0,
          "anneal_parallel_tempering: temperature_spread must be >= 1");
  // Span layout (DESIGN.md §10): the caller thread owns the sa.pt span
  // with construct/superstep/exchange children — superstep wall covers the
  // pool dispatch plus the barrier wait, while the workers accrue the actual
  // chain-run wall/CPU under their own sa.pt.chain_run spans, so "time the
  // barrier spent waiting" is superstep wall minus the chain-run share.
  VODREP_TRACE_SCOPE("sa.pt");

  // Each chain owns its Rng for its whole lifetime; the vector is sized up
  // front so the pointers the chains hold stay stable.
  std::vector<Rng> rngs;
  rngs.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    rngs.emplace_back(pt_chain_seed(base_seed, c));
  }

  std::vector<std::optional<AnnealChain<P>>> chains(k);
  auto construct = [&](std::size_t c) {
    VODREP_TRACE_SCOPE("sa.pt.chain_construct");
    chains[c].emplace(problem, rngs[c], options,
                      std::pow(options.temperature_spread,
                               static_cast<double>(c)));
  };
  // A one-worker pool would only add queue/wake latency per superstep, so it
  // runs inline like the no-pool case (output is identical either way).
  auto for_each_chain = [&](auto&& body) {
    if (pool != nullptr && pool->size() > 1 && k > 1) {
      pool->parallel_for(k, body);
    } else {
      for (std::size_t c = 0; c < k; ++c) body(c);
    }
  };
  {
    VODREP_TRACE_SCOPE("construct");
    for_each_chain(construct);
  }

  // Superstep loop: every chain advances up to swap_period temperature steps
  // in parallel (stopping early if its own schedule or stall predicate
  // fires), then the caller thread runs the serial exchange phase.  Pair
  // parity alternates per round so configurations can travel the whole
  // ladder.  The swap Rng always draws exactly one uniform per pair, keeping
  // its stream independent of the chains' costs.
  ExchangeLedger ledger(base_seed ^ 0xd1b54a32d192ed03ULL);
  auto any_active = [&] {
    for (const auto& chain : chains) {
      if (chain->active()) return true;
    }
    return false;
  };
  auto superstep = [&](std::size_t c) {
    VODREP_TRACE_SCOPE("sa.pt.chain_run");
    AnnealChain<P>& chain = *chains[c];
    for (std::size_t i = 0; i < options.swap_period && chain.step(); ++i) {
    }
  };
  for (std::size_t round = 0; any_active(); ++round) {
    {
      VODREP_TRACE_SCOPE("superstep");
      for_each_chain(superstep);
    }
    VODREP_TRACE_SCOPE("exchange");
    for (std::size_t lo = round % 2; lo + 1 < k; lo += 2) {
      AnnealChain<P>& cold = *chains[lo];
      AnnealChain<P>& hot = *chains[lo + 1];
      const double exponent =
          (1.0 / cold.temperature() - 1.0 / hot.temperature()) *
          (cold.current_cost() - hot.current_cost());
      if (ledger.admit(exponent)) {
        AnnealChain<P>::exchange(cold, hot);
      }
    }
  }

  std::vector<std::size_t> swaps_by_chain(k);
  std::vector<AnnealResult<typename P::State>> results;
  results.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    swaps_by_chain[c] = chains[c]->swaps_accepted();
    results.push_back(chains[c]->take_result());
  }
  std::size_t winner = 0;
  for (std::size_t c = 1; c < k; ++c) {
    if (results[c].best_cost < results[winner].best_cost) winner = c;
  }

  AnnealResult<typename P::State> out;
  out.best_cost = results[winner].best_cost;
  out.final_temperature = results[winner].final_temperature;
  out.temperature_steps = results[winner].temperature_steps;
  out.trajectory = results[winner].trajectory;
  out.winning_chain = winner;
  out.swap_attempts = ledger.attempts();
  out.swap_accepts = ledger.accepts();
  out.chains.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    out.moves_proposed += results[c].moves_proposed;
    out.moves_accepted += results[c].moves_accepted;
    out.moves_noop += results[c].moves_noop;
    AnnealChainStats stats = chain_stats_of(results[c], swaps_by_chain[c]);
    stats.trajectory = std::move(results[c].trajectory);
    out.chains.push_back(std::move(stats));
  }
  out.best_state = std::move(results[winner].best_state);
  return out;
}

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
