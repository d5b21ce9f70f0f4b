// Compiled only with VODREP_NO_OBS_HOOKS (see obs_baseline.h): SimEngine,
// ReplicatedPolicy and anneal_parallel_tempering() below resolve to the
// hook-free build.
#include "bench/obs_baseline.h"

#include "src/anneal/parallel_tempering.h"
#include "src/sim/replicated_policy.h"

#if !defined(VODREP_NO_OBS_HOOKS)
#error "obs_baseline.cc must be compiled with VODREP_NO_OBS_HOOKS"
#endif

namespace vodrep {

SimResult replay_without_hooks(const Layout& layout, const SimConfig& config,
                               const RequestTrace& trace) {
  SimEngine engine(config);
  ReplicatedPolicy policy(layout, config);
  return engine.run(policy, trace);
}

AnnealResult<ScalableSolution> anneal_without_hooks(
    const ScalableSaProblem& problem, std::uint64_t seed,
    const AnnealOptions& options) {
  return anneal_parallel_tempering(problem, seed, 1, options);
}

}  // namespace vodrep
