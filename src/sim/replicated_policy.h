// StoragePolicy for the paper's replicated organization: whole streams
// served by one replica holder, scheduled by the cluster dispatcher's
// static round-robin with the optional redirection, backbone-proxy, and
// batching extensions (src/sim/dispatcher.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/dispatcher.h"
#include "src/sim/engine.h"
#include "src/sim/stream_table.h"

namespace vodrep {

// Compiled a second time into the hot-path benches' hook-free baseline
// (src/obs/hooks.h), so everything here lives in that build's namespace.
VODREP_OBS_HOOKS_NS_BEGIN

class ReplicatedPolicy final : public StoragePolicy {
 public:
  /// `layout` must outlive the policy; the config is copied, so a
  /// temporary (e.g. `scenario.sim_config()`) is safe to pass.
  ReplicatedPolicy(const Layout& layout, const SimConfig& config);

  void bind(SimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;
  /// Partitions by holder_shard_plan.
  [[nodiscard]] PolicyShards shard(const RequestTrace& trace,
                                   std::size_t num_shards) const override;

  /// Installs a precomputed holder-pick sequence for a routed sub-trace
  /// replay (sharded simulation; see Dispatcher::set_routed_picks).
  void set_routed_picks(std::vector<std::uint32_t> picks) {
    dispatcher_.set_routed_picks(std::move(picks));
  }

 private:
  /// One reservation with a scheduled departure: a full stream or a
  /// patching join's catch-up stream.
  struct Stream {
    std::size_t server = 0;
    bool via_backbone = false;
  };

  const Layout& layout_;
  Dispatcher dispatcher_;
  SimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
};

/// The replicated organization's shard rules (src/sim/shard_plan.h), shared
/// with PrefixCachePolicy's disabled tier: kNone routes per server through
/// a round-robin pre-pass that records every pick; kOtherHolders co-shards
/// each video's holders; kBackboneProxy throws at more than one shard.
[[nodiscard]] ShardPlan holder_shard_plan(const Layout& layout,
                                          const SimConfig& config,
                                          const RequestTrace& trace,
                                          std::size_t num_shards);

VODREP_OBS_HOOKS_NS_END

}  // namespace vodrep
