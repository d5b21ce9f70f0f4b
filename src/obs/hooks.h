// The compile-time switch for every dormant observability hook.
//
// Hooks are always compiled in, and while disabled at run time each costs a
// relaxed load, a pointer test or a counter increment: trace spans
// (VODREP_TRACE_SCOPE, which also feed the run profile), and in SimEngine the
// timeline and event-log pointer tests, the event tallies and the
// once-per-run metrics export; no hook writes the metrics registry per
// event.  Defining VODREP_NO_OBS_HOOKS compiles all of them out.  No library
// target sets it: the hot-path benches compile src/sim/engine.cc,
// src/sim/replicated_policy.cc and src/anneal/annealer.h a second time with
// it, so their overhead guards time the library against a hook-free build
// of the same source, in the same process.
//
// For both builds to link into one binary, every class and template whose
// definition changes under the define opens VODREP_OBS_HOOKS_NS_BEGIN.  In
// the hook-free build that is the inline namespace `no_obs_hooks`, so its
// symbols are distinct; in the normal build it is empty and names are
// unchanged.  Source that uses the library names them as usual either way.
#pragma once

#if defined(VODREP_NO_OBS_HOOKS)
#define VODREP_OBS_HOOKS_NS_BEGIN inline namespace no_obs_hooks {
#define VODREP_OBS_HOOKS_NS_END }
#else
#define VODREP_OBS_HOOKS_NS_BEGIN
#define VODREP_OBS_HOOKS_NS_END
#endif

namespace vodrep::obs {

/// False in the hook-free build.  Hook sites test it first, so the
/// optimizer drops them there (internal linkage: one value per build).
#if defined(VODREP_NO_OBS_HOOKS)
constexpr bool kHooks = false;
#else
constexpr bool kHooks = true;
#endif

}  // namespace vodrep::obs
