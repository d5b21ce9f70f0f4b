// StoragePolicy for the paper's replicated organization: whole streams
// served by one replica holder, scheduled by the cluster dispatcher's
// static round-robin with the optional redirection, backbone-proxy, and
// batching extensions (src/sim/dispatcher.h).
//
// An optional edge tier (DESIGN.md §9)
// sits in front of the origin servers when PrefixCacheOptions give it a
// capacity.  The tier holds the first `prefix_fraction` of each video (the
// prefix a viewer watches before the origin can stage the suffix), and a
// request first consults it:
//
//   * prefix HIT, viewer stops inside the prefix — served entirely from the
//     edge; no origin bandwidth is reserved at all;
//   * prefix HIT, viewer watches past the prefix — only the suffix streams
//     from the origin cluster, holding origin bandwidth for
//     (watch_fraction - prefix_fraction) * duration seconds;
//   * prefix MISS — the whole watched stream comes from the origin (the
//     fetch that fills the cache rides the same stream), and the prefix is
//     inserted into the cache, evicting per the configured policy.
//
// Rejection attribution is exact: every holder crashed is kNoReplicaAlive;
// otherwise a miss against a busy origin is kCacheMissOriginBusy, and any
// other blocked stream (no tier, or a suffix after a hit: the cache did its
// job) is plain kNoBandwidth.  Without a tier (capacity 0, the default) the
// policy allocates no cache state and never consults one.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/dispatcher.h"
#include "src/sim/engine.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/stream_table.h"

namespace vodrep {

// Compiled a second time into the hot-path benches' hook-free baseline
// (src/obs/hooks.h), so everything here lives in that build's namespace.
VODREP_OBS_HOOKS_NS_BEGIN

class ReplicatedPolicy final : public StoragePolicy {
 public:
  /// `layout` must outlive the policy; the config and the tier options are
  /// copied, so temporaries (e.g. `scenario.sim_config()`) are safe to
  /// pass.  The options are validated even when they give the tier no
  /// capacity.
  ReplicatedPolicy(const Layout& layout, const SimConfig& config,
                   const PrefixCacheOptions& cache = {});

  void bind(SimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;
  /// The tier's counters; nullptr without a tier, so a zero-capacity run is
  /// indistinguishable from a tier-less one (metrics series included).
  [[nodiscard]] const CacheTierStats* cache_stats() const override;

  [[nodiscard]] const Layout& layout() const { return layout_; }

 private:
  /// One origin reservation with a scheduled departure: a full stream, a
  /// suffix stream after a prefix hit, or a patching join's catch-up.
  struct Stream {
    std::size_t server = 0;
    bool via_backbone = false;
  };

  /// The edge tier, present only with a positive capacity.
  struct EdgeTier {
    std::vector<double> prefix_fraction;  ///< size M, each in (0, 1]
    PrefixCache cache;
  };

  [[nodiscard]] PolicyDecision reject(std::size_t video,
                                      bool cache_miss) const;

  const Layout& layout_;
  Dispatcher dispatcher_;
  std::optional<EdgeTier> tier_;
  SimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
};

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
