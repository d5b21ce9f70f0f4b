#include "src/core/sa_solver.h"

#include <utility>
#include <vector>

#include "src/anneal/parallel_tempering.h"
#include "src/audit/audit.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {

static_assert(AnnealProblem<ScalableSaProblem>);

namespace {

/// Attempts of O(1) rejection sampling for "random video absent from this
/// server" before falling back to the exact O(M) scan.  Most videos are
/// absent from any given server (mean degree << N), so the fallback only
/// triggers when the server is nearly full — a state worth the scan.
constexpr std::size_t kAddReplicaRejectionAttempts = 32;

#if VODREP_CONTRACTS_ENABLED
/// The position sets of `server` against scans of its hosted list: both
/// counts, every k-th pick and the cheapest sheddable video.
void check_position_sets(const IncrementalState& inc, std::size_t server) {
  const std::size_t top = inc.problem().ladder.size() - 1;
  std::vector<std::uint32_t> below_top;
  std::vector<std::uint32_t> sheddable;
  std::uint32_t cheapest = IncrementalState::kNoVideo;
  for (std::uint32_t video : inc.videos_on(server)) {
    const std::size_t slot = inc.bitrate_index(video);
    if (slot < top) below_top.push_back(video);
    if (slot == 0 && inc.replica_count(video) <= 1) continue;
    sheddable.push_back(video);
    if (cheapest == IncrementalState::kNoVideo ||
        slot < inc.bitrate_index(cheapest) ||
        (slot == inc.bitrate_index(cheapest) && video > cheapest)) {
      cheapest = video;
    }
  }
  VODREP_DCHECK_EQ(inc.count_below_top(server), below_top.size(),
                   "position sets: below-top count");
  for (std::size_t k = 0; k < below_top.size(); ++k) {
    VODREP_DCHECK_EQ(inc.below_top_at(server, k), below_top[k],
                     "position sets: below-top pick");
  }
  VODREP_DCHECK_EQ(inc.count_sheddable(server), sheddable.size(),
                   "position sets: sheddable count");
  for (std::size_t k = 0; k < sheddable.size(); ++k) {
    VODREP_DCHECK_EQ(inc.sheddable_at(server, k), sheddable[k],
                     "position sets: sheddable pick");
  }
  VODREP_DCHECK_EQ(inc.cheapest_sheddable(server), cheapest,
                   "position sets: cheapest sheddable pick");
}
#endif

}  // namespace

ScalableSaProblem::ScalableSaProblem(const ScalableProblem& problem,
                                     const SaSolverOptions& options)
    : problem_(problem), options_(options) {
  problem_.validate();
  require(options_.shrink_probability >= 0.0 &&
              options_.shrink_probability <= 1.0,
          "ScalableSaProblem: shrink_probability out of [0, 1]");
}

ScalableSolution ScalableSaProblem::initial(Rng& rng) const {
  (void)rng;  // the paper's initial solution is deterministic
  ScalableSolution solution = lowest_rate_round_robin(problem_);
  (void)repair(solution);  // shed bandwidth overflow where possible
  return solution;
}

double ScalableSaProblem::cost(const State& state) const {
  const ServerUsage usage = compute_usage(problem_, state);
  double overflow = 0.0;
  const double capacity = problem_.cluster.bandwidth_bps_per_server;
  for (double load : usage.bandwidth_bps) {
    if (load > capacity) overflow += (load - capacity) / capacity;
  }
  const double objective =
      objective_value(state.bitrates(problem_.ladder), state.replicas(),
                      usage.bandwidth_bps, problem_.cluster.num_servers,
                      problem_.weights);
  return -objective + kSaBandwidthPenalty * overflow;
}

double ScalableSaProblem::incremental_cost(const IncrementalState& inc) const {
  return -inc.objective() +
         kSaBandwidthPenalty * inc.relative_bandwidth_overflow();
}

bool ScalableSaProblem::repair_incremental(IncrementalState& inc) const {
  // O(1) fast path: the overflow counters are maintained move-by-move, so
  // the common nothing-to-fix case costs two loads instead of an O(N) scan.
  if (!inc.any_storage_overflow() && !inc.any_bandwidth_overflow()) {
    return true;
  }
  const double storage_cap = problem_.cluster.storage_bytes_per_server;
  const double bandwidth_cap = problem_.cluster.bandwidth_bps_per_server;
  const std::size_t n = problem_.cluster.num_servers;
  // Iterate until every server fits; each action strictly reduces either a
  // ladder index or a replica count, so the loop terminates.  Unlike the
  // seed implementation this never rebuilds usage from scratch — the live
  // per-server vectors are consulted (O(N)) and updated by each action.
  for (;;) {
    const std::vector<double>& storage = inc.storage_bytes();
    const std::vector<double>& bandwidth = inc.bandwidth_bps();
    if (!inc.any_storage_overflow() && !inc.any_bandwidth_overflow()) {
      return true;
    }
    std::size_t worst = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (storage[s] > storage_cap || bandwidth[s] > bandwidth_cap) {
        worst = s;
        break;
      }
    }
    if (worst == n) return true;

    // Prefer the cheapest quality loss: among videos on the server that can
    // still shed something (rate above the floor, or a droppable replica),
    // pick the lowest-rate one, ties to the colder (higher-index) video.
    // The key is a strict total order, so the shed order does not depend on
    // the reverse index's swap-remove permutation.  The state's position
    // sets answer it from the lowest non-empty slot, without a scan of the
    // hosted list.
    const std::uint32_t pick = inc.cheapest_sheddable(worst);
    if (pick == IncrementalState::kNoVideo) {
      // Everything on the server is at the floor rate with a single replica:
      // storage overflow is then unfixable; bandwidth overflow is tolerated
      // (soft constraint, penalized in the cost).
      return !inc.any_storage_overflow();
    }
    const std::size_t pick_rate = inc.bitrate_index(pick);
    if (pick_rate > 0) {
      inc.set_bitrate(pick, pick_rate - 1);
    } else {
      inc.drop_replica(pick, worst);
    }
  }
}

bool ScalableSaProblem::repair(State& state) const {
  IncrementalState inc(problem_, std::move(state));
  const bool ok = repair_incremental(inc);
  state = inc.to_solution();
  return ok;
}

bool ScalableSaProblem::propose_move(IncrementalState& inc,
                                     std::size_t server,
                                     std::vector<std::uint32_t>& candidates,
                                     Rng& rng) const {
  const std::size_t n = problem_.cluster.num_servers;
  const std::size_t m = problem_.videos.count();

  // The raise and shrink picks are uniform over the server's candidates in
  // videos_on() order; the position sets count and select them in
  // O(hosted / 64).
  auto try_increase_rate = [&]() {
    const std::size_t count = inc.count_below_top(server);
    if (count == 0) return false;
    const std::uint32_t pick =
        inc.below_top_at(server, rng.uniform_index(count));
    inc.set_bitrate(pick, inc.bitrate_index(pick) + 1);
    return true;
  };
  auto try_add_replica = [&]() {
    // Uniform draw over the videos absent from this server: rejection
    // sampling first (O(1) expected), exact scan as the rare fallback.
    for (std::size_t attempt = 0; attempt < kAddReplicaRejectionAttempts;
         ++attempt) {
      const auto v = static_cast<std::size_t>(rng.uniform_index(m));
      if (inc.replica_count(v) < n && !inc.is_hosted(v, server)) {
        inc.add_replica(v, server);
        return true;
      }
    }
    candidates.clear();
    for (std::size_t v = 0; v < m; ++v) {
      if (inc.replica_count(v) < n && !inc.is_hosted(v, server)) {
        candidates.push_back(static_cast<std::uint32_t>(v));
      }
    }
    if (candidates.empty()) return false;
    const std::uint32_t pick = candidates[rng.uniform_index(candidates.size())];
    inc.add_replica(pick, server);
    return true;
  };
  auto try_shrink = [&]() {
    // Lower a hosted video's rate, or drop its replica here (never the last
    // one).  Uphill in objective, but it frees storage so later growth
    // moves can re-pack — the escape hatch from the storage-full plateau.
    const std::size_t count = inc.count_sheddable(server);
    if (count == 0) return false;
    const std::uint32_t pick =
        inc.sheddable_at(server, rng.uniform_index(count));
    if (inc.bitrate_index(pick) > 0 &&
        (inc.replica_count(pick) <= 1 || rng.bernoulli(0.5))) {
      inc.set_bitrate(pick, inc.bitrate_index(pick) - 1);
    } else {
      inc.drop_replica(pick, server);
    }
    return true;
  };

  if (rng.bernoulli(options_.shrink_probability)) {
    return try_shrink();
  }
  if (rng.bernoulli(kSaIncreaseRateProbability)) {
    return try_increase_rate() || try_add_replica();
  }
  return try_add_replica() || try_increase_rate();
}

ScalableSaProblem::Scratch ScalableSaProblem::make_scratch(State state) const {
  Scratch scratch{IncrementalState(problem_, std::move(state)), 0, 0.0, 0.0,
                  0.0, {}, {}};
  scratch.cost_before = incremental_cost(scratch.state);
  scratch.cost_after = scratch.cost_before;
  scratch.best_cost = scratch.cost_before;
  return scratch;
}

bool ScalableSaProblem::propose(Scratch& scratch, Rng& rng) const {
  // scratch.cost_before already holds the committed configuration's cost
  // (seeded by make_scratch, refreshed by commit), so the pre-move
  // evaluation the seed implementation paid here is free.
  scratch.mark = scratch.state.checkpoint();
  const auto server = static_cast<std::size_t>(
      rng.uniform_index(problem_.cluster.num_servers));
  if (!propose_move(scratch.state, server, scratch.candidates, rng)) {
    return false;
  }
  if (!repair_incremental(scratch.state)) {
    scratch.state.rollback(scratch.mark);
    return false;
  }
#if VODREP_CONTRACTS_ENABLED
  // A successful move+repair must leave every server within storage (Eq. 4);
  // bandwidth may overflow (soft constraint, penalized in the cost).
  for (double bytes : scratch.state.storage_bytes()) {
    VODREP_DCHECK_LE(bytes,
                     problem_.cluster.storage_bytes_per_server * (1.0 + 1e-9),
                     "propose: repair left a server over storage capacity");
  }
  check_position_sets(scratch.state, server);
#endif
  return true;
}

double ScalableSaProblem::delta_cost(const Scratch& scratch) const {
  scratch.cost_after = incremental_cost(scratch.state);
  return scratch.cost_after - scratch.cost_before;
}

void ScalableSaProblem::commit(Scratch& scratch) const {
  // Deferred best tracking: a new best drops the journal (nothing ever rolls
  // back past it), so rolling the whole journal back reaches the best, and
  // extract_best() pays the single O(M) materialization at the end of the
  // chain.
  scratch.cost_before = scratch.cost_after;
  IncrementalState& state = scratch.state;
  if (scratch.cost_after < scratch.best_cost) {
    scratch.best_cost = scratch.cost_after;
    scratch.best_snapshot.reset();
    state.commit();
  } else if (state.checkpoint() >
             kSaJournalTailPerVideo * problem_.videos.count()) {
    // A walker on a plateau: materialize the best (once per best), then
    // drop the whole journal.
    if (!scratch.best_snapshot) scratch.best_snapshot = state.solution_at(0);
    state.commit();
  }
}

void ScalableSaProblem::revert(Scratch& scratch) const {
  // cost_before still describes the restored configuration (rollback undoes
  // the running sums up to float-drift of ulp order).
  scratch.state.rollback(scratch.mark);
}

ScalableSolution ScalableSaProblem::extract_best(Scratch& scratch) const {
  if (scratch.best_snapshot) return std::move(*scratch.best_snapshot);
  scratch.state.rollback(0);
  return scratch.state.to_solution();
}

SaSolverResult solve_scalable(const ScalableProblem& problem,
                              std::uint64_t seed,
                              const SaSolverOptions& options,
                              ThreadPool* pool) {
  VODREP_TRACE_SCOPE("sa.solve");
  const ScalableSaProblem sa_problem(problem, options);
  SaSolverResult result;
  result.anneal = anneal_parallel_tempering(sa_problem, seed, options.chains,
                                            options.anneal, pool);
  {
    VODREP_TRACE_SCOPE("extract");
    result.solution = std::move(result.anneal.best_state);
    result.objective = solution_objective(problem, result.solution);
    result.feasible = is_feasible(problem, result.solution);
  }

#if VODREP_CONTRACTS_ENABLED
  {
    const AuditReport report =
        LayoutAuditor::audit_solution(problem, result.solution);
    if (result.feasible) {
      VODREP_DCHECK(report.ok(), report.summary());
    } else {
      // Eq. 5 is the solver's soft constraint: when the offered load exceeds
      // the cluster's outgoing bandwidth no solution satisfies it and the
      // annealer returns the least-overflowing one; everything else
      // (structure, Eq. 4 storage) must still hold.
      VODREP_DCHECK(report.ok_ignoring(ViolationKind::kBandwidthOverflow),
                    report.summary());
    }
  }
#endif
  return result;
}

}  // namespace vodrep
