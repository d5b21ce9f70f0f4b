// Generic simulated-annealing engine (minimization).
//
// This is the self-contained substitute for the parsa library the paper
// builds on.  A Problem supplies the three problem-specific decisions the
// paper lists in Section 4.3 — cost function, initial solution, neighborhood
// structure — and the engine owns the generic decisions: Metropolis
// acceptance, cooling, termination, and best-cost bookkeeping.
//
// The Metropolis loop lives in AnnealChain, a resumable single chain that
// advances one temperature step per step() call.
// anneal_parallel_tempering() (src/anneal/parallel_tempering.h) is the one
// driver: it couples chains at staggered temperatures through periodic
// replica exchanges, and one chain is simply K = 1.
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

/// The problem contract: a journaled move API.  The engine keeps one
/// mutable `Scratch` per chain and evaluates every move as an in-place
/// delta; the problem tracks the best configuration its walker has seen
/// inside that Scratch (during commit) and materializes it once, when the
/// chain is finished:
///
///   State initial(Rng&);              // feasible starting solution
///   double cost(const State&);        // the chain's starting cost (MINIMIZE)
///   Scratch make_scratch(State s);    // owns the chain's mutable state
///   bool propose(Scratch&, Rng&);     // tentatively apply a move; false =
///                                     // no-op (nothing applied, skip eval)
///   double delta_cost(const Scratch&);  // cost(after) - cost(before)
///   void commit(Scratch&);            // accept the move, note a new best
///   void revert(Scratch&);            // undo the tentative move
///   State extract_best(Scratch&);     // the walker's best; may consume the
///                                     // scratch (the chain is spent)
template <typename P>
concept AnnealProblem =
    requires { typename P::State; typename P::Scratch; } &&
    requires(const P& p, typename P::State s, typename P::Scratch& scratch,
             Rng& rng) {
      { p.initial(rng) } -> std::convertible_to<typename P::State>;
      { p.cost(std::as_const(s)) } -> std::convertible_to<double>;
      {
        p.make_scratch(std::move(s))
      } -> std::convertible_to<typename P::Scratch>;
      { p.propose(scratch, rng) } -> std::convertible_to<bool>;
      { p.delta_cost(std::as_const(scratch)) } -> std::convertible_to<double>;
      { p.commit(scratch) };
      { p.revert(scratch) };
      { p.extract_best(scratch) } -> std::convertible_to<typename P::State>;
    };

/// The cooling step: every temperature step ends with T <- kCoolingRatio * T
/// (geometric cooling).
inline constexpr double kCoolingRatio = 0.95;

/// Cap on stored trajectory samples.  While under the cap one (temperature,
/// best-cost) sample is kept per temperature step; on overflow the
/// trajectory is decimated in place (every other sample dropped, sampling
/// stride doubled), so memory stays bounded on long multi-chain runs while
/// the samples remain chronologically uniform.
inline constexpr std::size_t kAnnealTrajectoryMaxSamples = 4096;

/// Engine parameters.  Defaults suit problems whose cost is O(1)-scaled.
struct AnnealOptions {
  double initial_temperature = 1.0;  ///< must be positive
  double final_temperature = 1e-4;   ///< stop when T falls below this
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
struct AnnealChainStats {
  double best_cost = 0.0;
  double final_temperature = 0.0;
  std::size_t temperature_steps = 0;
  std::size_t moves_proposed = 0;
  std::size_t moves_accepted = 0;
  /// Move slots that produced no candidate (saturated server, irreparable
  /// move): skipped without a cost evaluation.
  std::size_t moves_noop = 0;
  /// Replica exchanges this chain participated in.
  std::size_t swaps_accepted = 0;
  /// (temperature, best-cost) samples: one per temperature step, decimated
  /// to every k-th step once kAnnealTrajectoryMaxSamples is exceeded.
  std::vector<std::pair<double, double>> trajectory;
};

/// What the driver returns.  The move counters aggregate across chains;
/// `best_cost`, `final_temperature` and `temperature_steps` are the winning
/// chain's, whose own trajectory is `chains[winning_chain].trajectory`.
template <typename State>
struct AnnealResult {
  State best_state{};
  double best_cost = 0.0;
  double final_temperature = 0.0;
  std::size_t temperature_steps = 0;
  std::size_t moves_proposed = 0;
  std::size_t moves_accepted = 0;
  std::size_t moves_noop = 0;
  /// Index (into `chains`) of the chain that produced best_state.
  std::size_t winning_chain = 0;
  /// Replica-exchange bookkeeping (zero for one chain).
  std::size_t swap_attempts = 0;
  std::size_t swap_accepts = 0;
  /// One entry per chain, in chain order.
  std::vector<AnnealChainStats> chains;
};

// The chain carries trace scopes, so it lives in the hook-free build's
// namespace (src/obs/hooks.h).
VODREP_OBS_HOOKS_NS_BEGIN

/// One resumable Metropolis chain.  Construction draws the initial solution
/// from `rng`; each step() call then runs one temperature step —
/// moves_per_temperature Metropolis moves plus trajectory, stall, and
/// cooling bookkeeping — and returns false once the chain has stopped.
///
/// Chains are also the unit of replica exchange: `exchange()` swaps two
/// chains' walker configurations (scratch + current cost) while each keeps
/// its own temperature, rng, and step count — the parallel-tempering
/// driver's only coupling point.
template <AnnealProblem P>
class AnnealChain {
 public:
  using State = typename P::State;
  using Scratch = typename P::Scratch;

  /// `rng`, `problem`, and `options` must outlive the chain.
  /// `temperature_scale` multiplies the initial temperature — the tempering
  /// ladder's spacing knob.
  AnnealChain(const P& problem, Rng& rng, const AnnealOptions& options,
              double temperature_scale = 1.0)
      : problem_(&problem), rng_(&rng), options_(&options) {
    require(options.initial_temperature > 0.0,
            "anneal: initial_temperature must be positive");
    require(options.final_temperature > 0.0,
            "anneal: final_temperature must be positive");
    require(options.moves_per_temperature > 0,
            "anneal: moves_per_temperature must be positive");
    State initial_state = problem.initial(rng);
    current_cost_ = problem.cost(initial_state);
    stats_.best_cost = current_cost_;
    scratch_.emplace(problem.make_scratch(std::move(initial_state)));
    temperature_ = options.initial_temperature * temperature_scale;
  }

  /// Runs one temperature step; returns false (touching nothing) once the
  /// chain is stopped — schedule exhausted (T below final or the step cap
  /// reached) or stalled.
  bool step() {
    if (stop_ != StopReason::kRunning) return false;
    if (!(temperature_ > options_->final_temperature &&
          stats_.temperature_steps < options_->max_temperature_steps)) {
      stop_ = StopReason::kSchedule;
      return false;
    }
    // Per-temperature-stage span (not per move): the disabled-path cost is
    // one relaxed load per moves_per_temperature Metropolis steps.
    VODREP_TRACE_SCOPE("anneal.temp_step");
    std::size_t accepted = 0;
    const double best_before = stats_.best_cost;
    for (std::size_t m = 0; m < options_->moves_per_temperature; ++m) {
      if (metropolis_step()) ++accepted;
    }
    stats_.moves_accepted += accepted;
    const std::size_t step_index = stats_.temperature_steps++;

    // Bounded trajectory: sample every trajectory_stride-th step; on hitting
    // the cap drop every other stored sample and double the stride.  Stored
    // steps are always the multiples of the current stride.
    std::vector<std::pair<double, double>>& trajectory = stats_.trajectory;
    if (step_index % trajectory_stride_ == 0) {
      if (trajectory.size() >= kAnnealTrajectoryMaxSamples) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < trajectory.size(); i += 2) {
          trajectory[kept++] = trajectory[i];
        }
        trajectory.resize(kept);
        trajectory_stride_ *= 2;
      }
      if (step_index % trajectory_stride_ == 0) {
        trajectory.emplace_back(temperature_, stats_.best_cost);
      }
    }

    stall_ = stats_.best_cost < best_before ? 0 : stall_ + 1;
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

  /// Replica exchange: swaps the two chains' walkers — the scratch, its
  /// current cost, and its best cost (the best configuration itself lives
  /// in the scratch and travels with it) — while each chain keeps its
  /// temperature, rng, and step count.  Both chains restart their stall
  /// clocks; a chain that had stopped on stall — but not one whose schedule
  /// is exhausted — resumes with the fresh material.
  static void exchange(AnnealChain& a, AnnealChain& b) {
    using std::swap;
    swap(a.scratch_, b.scratch_);
    swap(a.current_cost_, b.current_cost_);
    swap(a.stats_.best_cost, b.stats_.best_cost);
    a.on_incoming();
    b.on_incoming();
  }

  /// The chain's stats, with its final temperature.
  [[nodiscard]] AnnealChainStats take_stats() {
    stats_.final_temperature = temperature_;
    return std::move(stats_);
  }

  /// The best configuration this chain's walker has seen.  Consumes the
  /// scratch: call it once, when the chain is finished.
  [[nodiscard]] State take_best_state() {
    return problem_->extract_best(*scratch_);
  }

 private:
  enum class StopReason { kRunning, kSchedule, kStall };

  /// One Metropolis move at the current temperature; true when accepted.
  bool metropolis_step() {
    Rng& rng = *rng_;
    if (!problem_->propose(*scratch_, rng)) {
      ++stats_.moves_noop;  // nothing applied, nothing to evaluate
      return false;
    }
    ++stats_.moves_proposed;
    const double delta = problem_->delta_cost(*scratch_);
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature_)) {
      // The problem notes a new best inside commit(); the engine only keeps
      // its cost, for the stall clock, the trajectory and the reduction.
      problem_->commit(*scratch_);
      current_cost_ += delta;
      if (current_cost_ < stats_.best_cost) stats_.best_cost = current_cost_;
      return true;
    }
    problem_->revert(*scratch_);
    return false;
  }

  void on_incoming() {
    stall_ = 0;
    if (stop_ == StopReason::kStall) stop_ = StopReason::kRunning;
    ++stats_.swaps_accepted;
  }

  const P* problem_;
  Rng* rng_;
  const AnnealOptions* options_;
  // optional<> because a problem's Scratch need not be default-constructible;
  // always engaged after construction.
  std::optional<Scratch> scratch_;
  AnnealChainStats stats_;
  double current_cost_ = 0.0;
  double temperature_ = 0.0;
  std::size_t stall_ = 0;
  std::size_t trajectory_stride_ = 1;
  StopReason stop_ = StopReason::kRunning;
};

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
