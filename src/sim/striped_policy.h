// StoragePolicy for the striped organization: every stream of a video
// striped over k servers draws bitrate/k from each group member's outgoing
// link for the whole video duration.  Admission requires all k members to
// have the share available (and to be alive); a crash kills every active
// stream whose stripe group contains the failed server and makes all its
// videos unavailable for the rest of the peak — the coupling that limits
// striping's reliability.
#pragma once

#include <cstddef>

#include "src/core/striping.h"
#include "src/sim/engine.h"
#include "src/sim/stream_table.h"

namespace vodrep {

class StripedPolicy final : public StoragePolicy {
 public:
  /// `layout` must outlive the policy; the config is copied, so a
  /// temporary is safe to pass.  Throws when `config`
  /// sets replication-only extensions (redirect / backbone / batching):
  /// striping has no replica choice to honor them with.
  StripedPolicy(const StripedLayout& layout, const SimConfig& config);

  void bind(SimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;
  /// Co-shards the members of every stripe group.
  [[nodiscard]] PolicyShards shard(const RequestTrace& trace,
                                   std::size_t num_shards) const override;

 private:
  /// One active striped stream and its cancellable departure.
  struct Stream {
    std::size_t video = 0;
    EventHeap::Id departure = 0;
  };

  [[nodiscard]] double share_of(std::size_t video) const;

  const StripedLayout& layout_;
  SimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
};

}  // namespace vodrep
