// Generic simulated-annealing engine (minimization).
//
// This is the self-contained substitute for the parsa library the paper
// builds on.  A Problem supplies the three problem-specific decisions the
// paper lists in Section 4.3 — cost function, initial solution, neighborhood
// structure — and the engine owns the generic decisions: Metropolis
// acceptance, temperature calibration, cooling, termination, and
// best-solution tracking.
//
// Problem concept:
//   struct MyProblem {
//     using State = ...;                       // copyable solution type
//     State initial(Rng& rng) const;           // feasible starting solution
//     double cost(const State& s) const;       // value to MINIMIZE
//     State neighbor(const State& s, Rng&) const;  // random feasible move
//   };
//
// Problems may additionally implement the in-place move API (see
// InPlaceAnnealProblem below); the engine then evaluates moves as O(delta)
// incremental updates instead of copying and re-costing the whole State.
//
// The Metropolis loop itself lives in AnnealChain, a resumable single chain
// that advances one temperature step per step() call.  anneal() drives one
// chain to completion; anneal_parallel_tempering()
// (src/anneal/parallel_tempering.h), the one multi-chain driver, couples
// chains at staggered temperatures through periodic replica exchanges.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/hooks.h"
#include "src/obs/trace.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace vodrep {

template <typename P>
concept AnnealProblem = requires(const P& p, const typename P::State& s, Rng& rng) {
  { p.initial(rng) } -> std::convertible_to<typename P::State>;
  { p.cost(s) } -> std::convertible_to<double>;
  { p.neighbor(s, rng) } -> std::convertible_to<typename P::State>;
};

/// Optional extension of AnnealProblem: problems that can evaluate moves as
/// in-place deltas instead of copy-modify-recompute.  The engine then keeps
/// one mutable `Scratch` per chain and never copies the State on the move
/// path (only when a new best solution is extracted):
///
///   Scratch make_scratch(State s);   // owns the chain's mutable state
///   bool propose(Scratch&, Rng&);    // tentatively apply a move; false =
///                                    // no-op (nothing applied, skip eval)
///   double delta_cost(const Scratch&);  // cost(after) - cost(before)
///   void commit(Scratch&);           // accept the tentative move
///   void revert(Scratch&);           // undo the tentative move
///   State extract(const Scratch&);   // snapshot for best-state tracking
template <typename P>
concept InPlaceAnnealProblem =
    AnnealProblem<P> && requires { typename P::Scratch; } &&
    requires(const P& p, typename P::State s, typename P::Scratch& scratch,
             Rng& rng) {
      { p.make_scratch(std::move(s)) } -> std::convertible_to<typename P::Scratch>;
      { p.propose(scratch, rng) } -> std::convertible_to<bool>;
      { p.delta_cost(std::as_const(scratch)) } -> std::convertible_to<double>;
      { p.commit(scratch) };
      { p.revert(scratch) };
      { p.extract(std::as_const(scratch)) } -> std::convertible_to<typename P::State>;
    };

/// Optional extension of InPlaceAnnealProblem: problems that track the best
/// configuration seen *inside their Scratch* (typically as a journal mark
/// recorded during commit()) and can materialize it on demand.  The engine
/// then never copies State on the move path at all — a new best costs O(1)
/// bookkeeping instead of an extract() snapshot — and calls extract_best()
/// exactly once when the chain is finalized.  extract_best may consume the
/// scratch (e.g. roll it back to the marked position); the chain is spent
/// afterwards.
template <typename P>
concept DeferredBestAnnealProblem =
    InPlaceAnnealProblem<P> &&
    requires(const P& p, typename P::Scratch& scratch) {
      { p.extract_best(scratch) } -> std::convertible_to<typename P::State>;
    };

/// Target uphill acceptance ratio and neighbor-sample count of the
/// automatic initial-temperature calibration (calibrate_initial_temperature)
/// that AnnealOptions::initial_temperature <= 0 requests.
inline constexpr double kCalibrationAcceptance = 0.8;
inline constexpr std::size_t kCalibrationSamples = 200;

/// The cooling step: every temperature step ends with T <- kCoolingRatio * T
/// (geometric cooling).
inline constexpr double kCoolingRatio = 0.95;

/// Cap on stored trajectory samples.  While under the cap one (temperature,
/// best-cost) sample is kept per temperature step; on overflow the
/// trajectory is decimated in place (every other sample dropped, sampling
/// stride doubled), so memory stays bounded on long multi-chain runs while
/// the samples remain chronologically uniform.
inline constexpr std::size_t kAnnealTrajectoryMaxSamples = 4096;

/// Engine parameters.  Defaults suit problems whose cost is O(1)-scaled;
/// initial_temperature <= 0 requests automatic calibration (see
/// calibrate_initial_temperature).
struct AnnealOptions {
  double initial_temperature = -1.0;  ///< <= 0: calibrate automatically
  double final_temperature = 1e-4;    ///< stop when T falls below this
  std::size_t moves_per_temperature = 200;
  std::size_t max_temperature_steps = 10'000;  ///< hard safety cap
  /// Stop early after this many consecutive temperature steps without the
  /// best cost improving; 0 disables the early stop.
  std::size_t stall_steps = 50;
  /// Temperature steps each chain runs between replica-exchange rounds.
  std::size_t swap_period = 8;
  /// Geometric spacing of the tempering ladder: chain k starts at
  /// T0 * temperature_spread^k, so higher chains explore hotter landscapes
  /// whose configurations percolate down through accepted exchanges.
  double temperature_spread = 1.5;
};

/// Per-chain instrumentation: what one Metropolis chain did.
/// anneal_parallel_tempering reports one entry per chain; anneal() reports a
/// single entry mirroring the aggregate view.
struct AnnealChainStats {
  double best_cost = 0.0;
  double final_temperature = 0.0;
  std::size_t temperature_steps = 0;
  std::size_t moves_proposed = 0;
  std::size_t moves_accepted = 0;
  std::size_t moves_noop = 0;
  /// Replica exchanges this chain participated in (parallel tempering only).
  std::size_t swaps_accepted = 0;
  /// This chain's own (temperature, best-cost) trajectory.
  std::vector<std::pair<double, double>> trajectory;
};

/// What the engine did, for instrumentation and tests.  The top-level move
/// counters aggregate across chains; `trajectory` and `temperature_steps`
/// are the winning chain's (per-chain views live in `chains`).
template <typename State>
struct AnnealResult {
  State best_state{};
  double best_cost = 0.0;
  double final_temperature = 0.0;
  std::size_t temperature_steps = 0;
  std::size_t moves_proposed = 0;
  std::size_t moves_accepted = 0;
  /// Move slots that produced no candidate (saturated server, irreparable
  /// move): skipped without a cost evaluation.  Only the in-place path can
  /// detect these; the copy path always counts a proposal.
  std::size_t moves_noop = 0;
  /// (temperature, best-cost) samples: one per temperature step, decimated
  /// to every k-th step once kAnnealTrajectoryMaxSamples is exceeded.
  std::vector<std::pair<double, double>> trajectory;
  /// Index (into `chains`) of the chain that produced best_state.
  std::size_t winning_chain = 0;
  /// Replica-exchange bookkeeping (parallel tempering; zero otherwise).
  std::size_t swap_attempts = 0;
  std::size_t swap_accepts = 0;
  /// One entry per chain, in chain order.
  std::vector<AnnealChainStats> chains;
};

/// Estimates an initial temperature such that uphill moves are accepted with
/// roughly `target_acceptance` probability: samples random neighbor moves
/// from the initial state and sets T0 = mean(uphill delta) / -ln(target).
template <AnnealProblem P>
[[nodiscard]] double calibrate_initial_temperature(const P& problem, Rng& rng,
                                                   double target_acceptance,
                                                   std::size_t samples) {
  require(target_acceptance > 0.0 && target_acceptance < 1.0,
          "calibrate_initial_temperature: target in (0, 1) required");
  typename P::State state = problem.initial(rng);
  double cost = problem.cost(state);
  double uphill_sum = 0.0;
  std::size_t uphill_count = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    typename P::State candidate = problem.neighbor(state, rng);
    const double candidate_cost = problem.cost(candidate);
    const double delta = candidate_cost - cost;
    if (delta > 0.0) {
      uphill_sum += delta;
      ++uphill_count;
    }
    // Random-walk through the landscape so the sample is not anchored to the
    // immediate vicinity of the initial state.
    state = std::move(candidate);
    cost = candidate_cost;
  }
  if (uphill_count == 0) return 1.0;  // all moves downhill; T0 barely matters
  const double mean_uphill = uphill_sum / static_cast<double>(uphill_count);
  return mean_uphill / -std::log(target_acceptance);
}

namespace detail {

/// The chain's mutable per-move storage: the problem's Scratch when it
/// supports in-place moves, a plain State copy otherwise.  (A trait rather
/// than std::conditional_t because `typename P::Scratch` must not be named
/// at all for copy-only problems.)
template <typename P, bool InPlace = InPlaceAnnealProblem<P>>
struct AnnealStorage {
  using type = typename P::State;
};
template <typename P>
struct AnnealStorage<P, true> {
  using type = typename P::Scratch;
};

}  // namespace detail

/// Copies a finished chain result's counters into a per-chain stats entry.
template <typename State>
[[nodiscard]] AnnealChainStats chain_stats_of(const AnnealResult<State>& r,
                                              std::size_t swaps_accepted = 0) {
  AnnealChainStats stats;
  stats.best_cost = r.best_cost;
  stats.final_temperature = r.final_temperature;
  stats.temperature_steps = r.temperature_steps;
  stats.moves_proposed = r.moves_proposed;
  stats.moves_accepted = r.moves_accepted;
  stats.moves_noop = r.moves_noop;
  stats.swaps_accepted = swaps_accepted;
  stats.trajectory = r.trajectory;
  return stats;
}

// The chain and the functions that run it carry trace scopes, so they live
// in the hook-free build's namespace (src/obs/hooks.h).
VODREP_OBS_HOOKS_NS_BEGIN

/// One resumable Metropolis chain.  Construction consumes `rng` exactly as
/// the classic one-shot engine did (initial solution, then calibration when
/// requested); each step() call then runs one temperature step —
/// moves_per_temperature Metropolis moves plus trajectory, stall, and
/// cooling bookkeeping — and returns false once the chain has stopped.
/// Driving a chain with `while (chain.step()) {}` therefore reproduces the
/// one-shot anneal() bit for bit.
///
/// Chains are also the unit of replica exchange: `exchange()` swaps two
/// chains' walker configurations (state + current cost) while each keeps its
/// own temperature, rng, and step count — the parallel-tempering driver's
/// only coupling point.
template <AnnealProblem P>
class AnnealChain {
 public:
  using State = typename P::State;
  using Storage = typename detail::AnnealStorage<P>::type;

  /// `rng`, `problem`, and `options` must outlive the chain.
  /// `temperature_scale` multiplies the (possibly calibrated) initial
  /// temperature — the tempering ladder's spacing knob; 1.0 reproduces the
  /// classic single-chain start.
  AnnealChain(const P& problem, Rng& rng, const AnnealOptions& options,
              double temperature_scale = 1.0)
      : problem_(&problem), rng_(&rng), options_(&options) {
    require(options.final_temperature > 0.0,
            "anneal: final_temperature must be positive");
    require(options.moves_per_temperature > 0,
            "anneal: moves_per_temperature must be positive");
    State initial_state = problem.initial(rng);
    current_cost_ = problem.cost(initial_state);
    result_.best_cost = current_cost_;
    if constexpr (!DeferredBestAnnealProblem<P>) {
      result_.best_state = initial_state;
    }
    if constexpr (InPlaceAnnealProblem<P>) {
      storage_.emplace(problem.make_scratch(std::move(initial_state)));
    } else {
      storage_.emplace(std::move(initial_state));
    }
    temperature_ = options.initial_temperature;
    if (temperature_ <= 0.0) {
      temperature_ = calibrate_initial_temperature(
          problem, rng, kCalibrationAcceptance, kCalibrationSamples);
    }
    temperature_ *= temperature_scale;
  }

  /// Runs one temperature step; returns false (touching nothing) once the
  /// chain is stopped — schedule exhausted (T below final or the step cap
  /// reached) or stalled.
  bool step() {
    if (stop_ != StopReason::kRunning) return false;
    if (!(temperature_ > options_->final_temperature &&
          result_.temperature_steps < options_->max_temperature_steps)) {
      stop_ = StopReason::kSchedule;
      return false;
    }
    // Per-temperature-stage span (not per move): the disabled-path cost is
    // one relaxed load per moves_per_temperature Metropolis steps.
    VODREP_TRACE_SCOPE("anneal.temp_step");
    std::size_t accepted = 0;
    const double best_before = result_.best_cost;
    for (std::size_t m = 0; m < options_->moves_per_temperature; ++m) {
      if (metropolis_step()) ++accepted;
    }
    result_.moves_accepted += accepted;
    const std::size_t step_index = result_.temperature_steps++;

    // Bounded trajectory: sample every trajectory_stride-th step; on hitting
    // the cap drop every other stored sample and double the stride.  Stored
    // steps are always the multiples of the current stride.
    if (step_index % trajectory_stride_ == 0) {
      if (result_.trajectory.size() >= kAnnealTrajectoryMaxSamples) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < result_.trajectory.size(); i += 2) {
          result_.trajectory[kept++] = result_.trajectory[i];
        }
        result_.trajectory.resize(kept);
        trajectory_stride_ *= 2;
      }
      if (step_index % trajectory_stride_ == 0) {
        result_.trajectory.emplace_back(temperature_, result_.best_cost);
      }
    }

    stall_ = result_.best_cost < best_before ? 0 : stall_ + 1;
    if (options_->stall_steps != 0 && stall_ >= options_->stall_steps) {
      stop_ = StopReason::kStall;
      return false;
    }
    temperature_ *= kCoolingRatio;
    return true;
  }

  [[nodiscard]] bool active() const { return stop_ == StopReason::kRunning; }
  [[nodiscard]] double temperature() const { return temperature_; }
  [[nodiscard]] double current_cost() const { return current_cost_; }
  [[nodiscard]] double best_cost() const { return result_.best_cost; }
  [[nodiscard]] std::size_t swaps_accepted() const { return swaps_accepted_; }

  /// Replica exchange: swaps the two chains' walkers — the mutable state,
  /// its current cost, and the walker's best-so-far tracking (which lives
  /// with the walker: for deferred-best problems the best is a mark inside
  /// the scratch and must travel with it) — while each chain keeps its
  /// temperature, rng, and step count.  Both chains restart their
  /// stall clocks; a chain that had stopped on stall — but not one whose
  /// schedule is exhausted — resumes with the fresh material.
  static void exchange(AnnealChain& a, AnnealChain& b) {
    using std::swap;
    swap(a.storage_, b.storage_);
    swap(a.current_cost_, b.current_cost_);
    swap(a.result_.best_cost, b.result_.best_cost);
    if constexpr (!DeferredBestAnnealProblem<P>) {
      swap(a.result_.best_state, b.result_.best_state);
    }
    a.on_incoming();
    b.on_incoming();
    ++a.swaps_accepted_;
    ++b.swaps_accepted_;
  }

  /// Finalizes and returns the chain's result; the chain is spent afterwards.
  [[nodiscard]] AnnealResult<State> take_result() {
    result_.final_temperature = temperature_;
    if constexpr (DeferredBestAnnealProblem<P>) {
      result_.best_state = problem_->extract_best(*storage_);
    }
    return std::move(result_);
  }

 private:
  enum class StopReason { kRunning, kSchedule, kStall };

  /// One Metropolis move at the current temperature; true when accepted.
  bool metropolis_step() {
    Rng& rng = *rng_;
    if constexpr (InPlaceAnnealProblem<P>) {
      if (!problem_->propose(*storage_, rng)) {
        ++result_.moves_noop;  // nothing applied, nothing to evaluate
        return false;
      }
      ++result_.moves_proposed;
      const double delta = problem_->delta_cost(*storage_);
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature_)) {
        problem_->commit(*storage_);
        current_cost_ += delta;
        if (current_cost_ < result_.best_cost) {
          result_.best_cost = current_cost_;
          // Deferred-best problems record the improvement inside commit();
          // copying a State snapshot here would be the hot loop's only O(M)
          // work, so skip it and extract once in take_result().
          if constexpr (!DeferredBestAnnealProblem<P>) {
            result_.best_state = problem_->extract(*storage_);
          }
        }
        return true;
      }
      problem_->revert(*storage_);
      return false;
    } else {
      typename P::State candidate = problem_->neighbor(*storage_, rng);
      const double candidate_cost = problem_->cost(candidate);
      const double delta = candidate_cost - current_cost_;
      ++result_.moves_proposed;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature_)) {
        *storage_ = std::move(candidate);
        current_cost_ = candidate_cost;
        if (current_cost_ < result_.best_cost) {
          result_.best_cost = current_cost_;
          result_.best_state = *storage_;
        }
        return true;
      }
      return false;
    }
  }

  void on_incoming() {
    stall_ = 0;
    if (stop_ == StopReason::kStall) stop_ = StopReason::kRunning;
  }

  const P* problem_;
  Rng* rng_;
  const AnnealOptions* options_;
  // optional<> because Storage (a problem's Scratch) need not be
  // default-constructible; always engaged after construction.
  std::optional<Storage> storage_;
  AnnealResult<State> result_;
  double current_cost_ = 0.0;
  double temperature_ = 0.0;
  std::size_t stall_ = 0;
  std::size_t trajectory_stride_ = 1;
  std::size_t swaps_accepted_ = 0;
  StopReason stop_ = StopReason::kRunning;
};

/// Runs simulated annealing and returns the best state encountered.
/// Deterministic given `rng`'s seed.  Problems satisfying
/// InPlaceAnnealProblem are driven through the allocation-free
/// propose/delta_cost/commit/revert path; everything else uses the classic
/// copy-modify-recompute loop.
template <AnnealProblem P>
[[nodiscard]] AnnealResult<typename P::State> anneal(
    const P& problem, Rng& rng, const AnnealOptions& options = {}) {
  VODREP_TRACE_SCOPE("anneal.run");
  AnnealChain<P> chain(problem, rng, options);
  while (chain.step()) {
  }
  AnnealResult<typename P::State> result = chain.take_result();
  result.chains.push_back(chain_stats_of(result));
  result.winning_chain = 0;
  return result;
}

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
