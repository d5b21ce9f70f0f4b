// Data striping: the alternative storage organization the paper argues
// against (Section 1 and its citation of "Striping doesn't scale").
//
// Under striping a video's blocks are spread over a *stripe group* of k
// servers and every stream of that video draws bitrate/k from each group
// member's outgoing link concurrently.  Wide striping (k = N) pools the
// whole cluster into one virtual link — perfect load balance — but couples
// every video to every server: one server failure interrupts every stream
// and makes every video striped over it unavailable.  Replication isolates
// failures at the cost of balancing explicitly.  The vodrep_striping
// benchmark reproduces this trade-off quantitatively.  A striped layout is
// the one-copy hybrid layout below, so HybridPolicy
// (src/sim/hybrid_policy.h) replays striping and hybrid stripe groups alike.
#pragma once

#include <cstddef>
#include <vector>

namespace vodrep {

/// Probability that a uniformly random video is fully available when each
/// server independently survives with probability `server_survival`:
/// availability of a k-striped video is survival^k, of an r-replicated
/// video is 1 - (1 - survival)^r.  These closed forms back the reliability
/// comparison in the striping benchmark.
[[nodiscard]] double striped_video_availability(double server_survival,
                                                std::size_t stripe_width);
[[nodiscard]] double replicated_video_availability(double server_survival,
                                                   std::size_t replicas);

/// Hybrid organization (the paper's "data striping and recovery schemes can
/// be employed within the servers"): r replicas of k-wide stripe groups.
/// A video is available when at least one group is fully alive:
/// 1 - (1 - p^k)^r.  k = 1 degenerates to replication, r = 1 to striping.
[[nodiscard]] double hybrid_video_availability(double server_survival,
                                               std::size_t stripe_width,
                                               std::size_t group_replicas);

/// Hybrid layout: every video owns `group_replicas` pairwise-disjoint
/// stripe groups of `stripe_width` distinct servers each; streams are
/// dispatched round-robin across a video's groups.
struct HybridLayout {
  /// groups[video][replica] = the servers of that stripe-group copy.
  std::vector<std::vector<std::vector<std::size_t>>> groups;

  [[nodiscard]] std::size_t num_videos() const { return groups.size(); }

  /// Throws InvalidArgumentError unless every video has >= 1 group, groups
  /// have distinct in-range members, and a video's groups are pairwise
  /// disjoint (a shared server would couple the copies' failures).
  void validate(std::size_t num_servers) const;
};

/// Builds a staggered hybrid layout.  Requires
/// stripe_width * group_replicas <= num_servers so a video's copies can be
/// disjoint.
[[nodiscard]] HybridLayout make_hybrid_layout(std::size_t num_videos,
                                              std::size_t num_servers,
                                              std::size_t stripe_width,
                                              std::size_t group_replicas);

/// Builds a striped layout with stripe width `k`: the one-copy hybrid
/// layout, in which video i occupies servers (i*k .. i*k + k - 1) mod N
/// wrapped round-robin, the standard staggered layout that equalizes the
/// number of stripes per server.  Requires 1 <= k <= num_servers.
[[nodiscard]] inline HybridLayout make_striped_layout(
    std::size_t num_videos, std::size_t num_servers, std::size_t stripe_width) {
  return make_hybrid_layout(num_videos, num_servers, stripe_width, 1);
}

}  // namespace vodrep
