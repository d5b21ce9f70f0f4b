// Simulated-annealing solver for the scalable-bit-rate replication and
// placement problem (paper Section 4.3).
//
// The three problem-specific decisions the paper plugs into the parsa
// library are implemented here against src/anneal:
//   * cost function: the negated Eq. 1 objective (the engine minimizes),
//     plus a penalty proportional to any irreparable bandwidth overflow —
//     the paper notes Eq. 5 can be violated when the offered load exceeds
//     the cluster's total outgoing bandwidth;
//   * initial solution: every video at the lowest ladder rate, one replica,
//     placed round-robin;
//   * neighborhood: pick a random server, then either raise the encoding
//     bit rate of one video hosted there or add a replica of a new video to
//     it; if the move overflows the server's storage or bandwidth, repair by
//     lowering the bit rate of (or evicting) its lowest-rate videos.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/anneal/annealer.h"
#include "src/core/incremental_state.h"
#include "src/core/scalable.h"
#include "src/util/thread_pool.h"

namespace vodrep {

/// Cost penalty per unit of relative bandwidth overflow (sum over servers
/// of overflow/B).  Large enough that infeasibility always dominates any
/// objective gain at the paper's scales.
inline constexpr double kSaBandwidthPenalty = 100.0;
/// Probability that a growth move tries a bit-rate increase first
/// (otherwise it tries to add a replica first; each falls back to the other
/// when its preconditions fail).
inline constexpr double kSaIncreaseRateProbability = 0.5;
/// A chain's undo journal holds at most this many entries per video, all
/// committed since its best configuration (a new best drops the journal):
/// past that, commit() materializes the best as a ScalableSolution and
/// drops the journal again.  A snapshot costs O(M), so one per
/// kSaJournalTailPerVideo * M commits keeps the cost per commit O(1).
inline constexpr std::size_t kSaJournalTailPerVideo = 8;

struct SaSolverOptions {
  AnnealOptions anneal;
  /// Parallel-tempering chains: coupled chains at staggered temperatures
  /// with periodic replica exchanges every anneal.swap_period steps (see
  /// src/anneal/parallel_tempering.h), on `pool` when provided.  One chain
  /// runs no exchange.  Output is deterministic in the seed regardless of
  /// thread count.
  std::size_t chains = 1;
  /// Probability of proposing an explicit shrink move (lower one hosted
  /// video's rate or drop one of its replicas) instead of a growth move.
  /// The paper's stated neighborhood only grows and repairs; that makes
  /// "storage full" an absorbing plateau — every raise is undone by the
  /// repair — and the chain stops improving far below what the budget
  /// admits (see EXPERIMENTS.md E7).  Explicit shrink moves let the
  /// annealer re-pack storage across servers.  0 reproduces the paper's
  /// neighborhood verbatim.
  double shrink_probability = 0.2;
};

struct SaSolverResult {
  ScalableSolution solution;
  double objective = 0.0;        ///< Eq. 1 value of the returned solution
  bool feasible = false;         ///< hard-feasible (Eqs. 4-7) at return
  /// Engine instrumentation.  Its best_state is moved into `solution`, so
  /// it is left empty.
  AnnealResult<ScalableSolution> anneal;
};

/// Mutable per-chain working set of the annealer: the live incremental
/// state plus the transaction bookkeeping of the tentatively applied move
/// and a reusable candidate buffer for the add move's exact fallback (no
/// per-move allocation).
/// `cost_before` caches the cost of the committed configuration across
/// moves — make_scratch seeds it and commit() refreshes it from the move's
/// own delta evaluation, so the engine pays exactly one cost evaluation per
/// proposed move instead of two.
struct SaScratch {
  IncrementalState state;
  IncrementalState::Checkpoint mark = 0;
  double cost_before = 0.0;
  /// The tentative move's cost, written by delta_cost() (const in the
  /// engine's concept, hence mutable) and promoted to cost_before on commit.
  mutable double cost_after = 0.0;
  /// Deferred best tracking: commit() drops the journal at every new best,
  /// so the journal holds only moves committed since the best
  /// configuration this walker has seen, and extract_best() rolls it back
  /// to its start once at the end — a new best costs O(1) instead of an
  /// O(M) solution snapshot.  A journal that grows past
  /// kSaJournalTailPerVideo * M entries becomes `best_snapshot` and is
  /// dropped.  A replica exchange swaps whole scratches, so the snapshot
  /// travels with its walker.
  double best_cost = 0.0;
  /// The best configuration once the journal behind it was dropped; empty
  /// while a rollback of the whole journal still reaches it.
  std::optional<ScalableSolution> best_snapshot;
  std::vector<std::uint32_t> candidates;
};

/// The AnnealProblem adapter (src/anneal/annealer.h); exposed so tests can
/// exercise the neighborhood and repair logic directly.
class ScalableSaProblem {
 public:
  using State = ScalableSolution;
  using Scratch = SaScratch;

  ScalableSaProblem(const ScalableProblem& problem,
                    const SaSolverOptions& options);

  [[nodiscard]] State initial(Rng& rng) const;
  /// Full recompute of a solution's cost: a chain's starting cost, and the
  /// tests' reference for delta_cost().
  [[nodiscard]] double cost(const State& state) const;

  /// Brings `state` back within the storage constraint (hard) and as far
  /// within the bandwidth constraint as possible (soft), touching only
  /// videos hosted on over-committed servers.  Returns false when the
  /// storage constraint could not be met (caller should discard the move).
  [[nodiscard]] bool repair(State& state) const;

  // In-place move API.  One move is a neighborhood action plus any repair
  // actions it triggered, journaled as a unit: propose() tentatively applies
  // it to scratch.state and returns false for a no-op (saturated server or
  // irreparable overflow — nothing applied); delta_cost() is the cost change
  // of the applied move; commit()/revert() accept or undo it.
  [[nodiscard]] Scratch make_scratch(State state) const;
  [[nodiscard]] bool propose(Scratch& scratch, Rng& rng) const;
  [[nodiscard]] double delta_cost(const Scratch& scratch) const;
  void commit(Scratch& scratch) const;
  void revert(Scratch& scratch) const;
  /// Returns the best snapshot, or rolls the scratch back to the best
  /// configuration its journal has seen and materializes it.  Consumes the
  /// scratch (call once, at the end of a chain).
  [[nodiscard]] State extract_best(Scratch& scratch) const;

 private:
  [[nodiscard]] double incremental_cost(const IncrementalState& inc) const;
  /// The neighborhood action on `server` (no repair); false when the server
  /// is saturated.
  [[nodiscard]] bool propose_move(IncrementalState& inc, std::size_t server,
                                  std::vector<std::uint32_t>& candidates,
                                  Rng& rng) const;
  /// repair() on the live incremental state; false on irreparable storage
  /// overflow (caller must roll back).
  [[nodiscard]] bool repair_incremental(IncrementalState& inc) const;

  const ScalableProblem& problem_;
  SaSolverOptions options_;
};

/// Runs parallel tempering with `seed` over options.chains chains (on `pool`
/// when given) and returns the best configuration found; output is
/// deterministic in `seed` regardless of thread count.
[[nodiscard]] SaSolverResult solve_scalable(const ScalableProblem& problem,
                                            std::uint64_t seed,
                                            const SaSolverOptions& options = {},
                                            ThreadPool* pool = nullptr);

}  // namespace vodrep
