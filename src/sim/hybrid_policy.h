// StoragePolicy for the hybrid organization: replicated stripe groups
// (r copies of k-wide groups per video).  Dispatch follows the paper's
// static round-robin at the group level: each request picks the video's
// next group in rotation and draws bitrate/k from every member of that
// group; the request is rejected when any member of the scheduled group
// lacks the share (no retry, mirroring the strict static policy of the
// replication organization).  A server crash kills the streams of every
// group containing it, but the video stays available through its surviving
// groups.
//
// Pure striping is the one-copy case (make_striped_layout): every stream
// draws bitrate/k from each member of its video's only group, and a crash
// makes every video striped over the failed server unavailable for the rest
// of the peak — the coupling that limits striping's reliability.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/striping.h"
#include "src/sim/engine.h"
#include "src/sim/stream_table.h"

namespace vodrep {

class HybridPolicy final : public StoragePolicy {
 public:
  /// `layout` must outlive the policy; the config is copied, so a
  /// temporary is safe to pass.  Throws when `config` sets
  /// replication-only extensions (redirect / backbone / batching).
  HybridPolicy(const HybridLayout& layout, const SimConfig& config);

  void bind(SimEngine& engine) override;
  PolicyDecision dispatch(const Request& request) override;
  void on_departure(std::size_t stream) override;
  std::size_t on_crash(std::size_t server) override;

 private:
  /// One active stream on a specific stripe-group copy of its video.
  struct Stream {
    std::size_t video = 0;
    std::size_t group = 0;
    EventHeap::Id departure = 0;
  };

  [[nodiscard]] const std::vector<std::size_t>& group_of(
      const Stream& stream) const {
    return layout_.groups[stream.video][stream.group];
  }

  const HybridLayout& layout_;
  SimEngine* engine_ = nullptr;
  StreamTable<Stream> streams_;
  std::vector<std::size_t> rr_counter_;  ///< per-video group rotation
};

}  // namespace vodrep
