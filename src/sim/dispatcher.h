// Request dispatcher: picks the serving replica for each incoming request.
//
// The paper's model is a cluster dispatcher that admits requests and hands
// the connection off to a back-end server (TCP handoff), scheduling replicas
// of a video by *static round-robin*.  A request is rejected when the
// scheduled server lacks outgoing bandwidth.
//
// Two escalating redirection extensions model the future-work strategy the
// paper sketches in its conclusion (use the internal backbone to balance
// outgoing traffic at runtime):
//   * kOtherHolders — retry an admission-rejected request on the other
//     servers holding a replica of the video, least-loaded first.  Serves
//     from local disk, so it costs nothing beyond deviating from the static
//     round-robin share.
//   * kBackboneProxy — kOtherHolders, and when every holder's outgoing link
//     is full, proxy the stream through the least-loaded non-holder with
//     free outgoing bandwidth; the holder pushes the data to the proxy over
//     the internal backbone, so the detour reserves backbone bandwidth for
//     the stream's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/server.h"

namespace vodrep {

enum class RedirectMode {
  kNone,           ///< strict static round-robin (the paper's Section 5 setup)
  kOtherHolders,   ///< retry on other replica holders, least-loaded first
  kBackboneProxy,  ///< kOtherHolders + proxy via idle servers over the backbone
};

/// How a joining request shares an existing stream.
enum class BatchingMode {
  kPiggyback,  ///< join free of charge (optimistic upper bound)
  kPatching,   ///< pay a catch-up stream for the missed prefix (Eager et
               ///< al.-style patching): bandwidth for (now - start) seconds
};

/// Outcome of one dispatch decision.
struct DispatchDecision {
  std::size_t server = 0;
  bool redirected = false;    ///< served by a server other than the RR pick
  bool via_backbone = false;  ///< stream proxied over the internal backbone
  bool batched = false;       ///< joined an existing stream of the video
  /// kPatching joins: duration of the catch-up stream the join reserves on
  /// `server` (0 for piggyback joins and normal admissions).
  double patch_duration_sec = 0.0;

  /// True when the decision obligates the caller to reserve the stream's
  /// bandwidth on `server`: every non-batched admission, plus patching
  /// joins that pay a catch-up stream.  Piggyback joins hold nothing.
  [[nodiscard]] bool reserves_bandwidth() const {
    return !batched || patch_duration_sec > 0.0;
  }
};

class Dispatcher {
 public:
  /// `layout` must outlive the dispatcher.  `backbone_bps` caps the total
  /// bandwidth of concurrently proxied streams (kBackboneProxy only).
  ///
  /// `batching_window_sec` > 0 enables stream sharing (the batching /
  /// piggybacking family of techniques the paper cites as complementary):
  /// a request for a video whose replica on the scheduled server started a
  /// stream within the window joins that stream for free instead of opening
  /// a new one.  `stream_duration_sec` bounds how long a stream stays
  /// joinable.
  Dispatcher(const Layout& layout, RedirectMode mode, double backbone_bps,
             double batching_window_sec = 0.0,
             double stream_duration_sec = 0.0,
             BatchingMode batching_mode = BatchingMode::kPiggyback);

  /// Chooses the serving server for a request for `video` arriving at time
  /// `now`, or nullopt to reject.  The dispatcher only *decides*: it reads
  /// the server states but reserves nothing itself, so the caller that owns
  /// the load accounting (normally the SimEngine) stays authoritative.  A
  /// returned decision is binding — when reserves_bandwidth() is true the
  /// caller must admit the stream on `server` (the dispatcher already
  /// recorded the round-robin advance, the joinable-stream window, and the
  /// backbone reservation), and must later call release_backbone() if
  /// `via_backbone` was set.
  [[nodiscard]] std::optional<DispatchDecision> dispatch(
      std::size_t video, double bitrate_bps,
      const std::vector<StreamingServer>& servers, double now = 0.0);

  /// Replays a precomputed holder-pick sequence instead of the internal
  /// per-video round-robin counters: element i is the holder *index* (into
  /// layout.hosts(video)) the i-th dispatch() call must schedule.
  /// The routed replay (src/sim/sharded_engine.h) pre-computes every pick —
  /// the round-robin advance is unconditional, so the pick sequence is a
  /// pure function of the request order — routes each request to the shard
  /// owning its picked holder, and replays the picks there; everything
  /// downstream of the pick (batching join, admission, the joinable-stream
  /// window) runs unchanged.  kNone redirect mode only: redirect retries
  /// read every holder's live load, which a routed shard does not own.
  void set_routed_picks(std::vector<std::uint32_t> picks);

  /// Frees the backbone reservation of one finished proxied stream.
  void release_backbone(double bitrate_bps);

  /// Invalidates joinable streams on a crashed server.
  void on_server_failed(std::size_t server);

  /// Bandwidth currently reserved on the backbone by proxied streams.
  [[nodiscard]] double backbone_busy_bps() const { return backbone_busy_bps_; }

 private:
  /// Age of the youngest joinable stream of `video` on `server`, or a
  /// negative value when none is joinable.
  [[nodiscard]] double joinable_offset(std::size_t server, std::size_t video,
                                       double now) const;

  const Layout& layout_;
  RedirectMode mode_;
  double backbone_bps_;
  double batching_window_sec_;
  double stream_duration_sec_;
  BatchingMode batching_mode_;
  double backbone_busy_bps_ = 0.0;
  bool routed_ = false;  ///< replay routed_picks_ instead of rr_counter_
  std::vector<std::uint32_t> routed_picks_;
  std::size_t routed_cursor_ = 0;
  std::vector<std::size_t> rr_counter_;  ///< per-video static RR position
  /// last_stream_start_[slot] = start time of the newest stream of the
  /// replica in layout slot `slot` (offsets[video] + holder index);
  /// negative infinity when none.  Empty unless batching is on.
  std::vector<double> last_stream_start_;
};

}  // namespace vodrep
