// Layout: the concrete assignment of every replica to a server.
//
// A layout is the paper's phi_i(k) mapping, stored in compressed-row form:
// `servers` lists the server of every replica, video by video, and video
// i's hosts are servers[offsets[i] .. offsets[i + 1]).  So a layout is two
// allocations for any catalogue size, and every consumer (the auditor, the
// expected loads, the dispatcher, the exchange format) reads the arrays in
// place through hosts(i).  At M = 1M, N = 256 the flat form holds about
// 13 MB against 56 MB for a vector per video, and builds and frees without
// a million heap blocks.
//
// The layout, together with the per-replica communication weights
// w_i = p_i / r_i, determines the expected outgoing load l_j of every server
// (Eq. 5) and hence the load-imbalance degree the placement algorithms
// minimize.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/core/replication.h"

namespace vodrep {

/// Per-video host lists in nested form, for callers that edit or permute
/// them before packing a Layout.
using HostLists = std::vector<std::vector<std::size_t>>;

struct Layout {
  /// offsets[i] = first slot of video i; M + 1 entries, so offsets.back()
  /// is the total replica count.  Never empty.
  std::vector<std::uint64_t> offsets = {0};
  /// Server of every replica slot; a video's servers are distinct and each
  /// < num_servers (the auditor judges layouts that break this).
  std::vector<std::uint32_t> servers;

  /// The layout of no videos.
  Layout() = default;

  /// Packs nested host lists, in order.  Checks only that every id fits in
  /// 32 bits (InvalidArgumentError otherwise, never a silent wrap); empty,
  /// duplicate or out-of-range lists are kept verbatim, so the auditor can
  /// report them.
  explicit Layout(const HostLists& host_lists);
  /// The same from a literal: Layout{{0, 1}, {1}} packs two videos.
  Layout(std::initializer_list<std::vector<std::size_t>> host_lists)
      : Layout(HostLists(host_lists)) {}

  /// plan.replicas[v] slots per video, all server 0: a placement writes
  /// video v's k-th replica to servers[offsets[v] + k].
  [[nodiscard]] static Layout with_slots(const ReplicationPlan& plan);

  [[nodiscard]] std::size_t num_videos() const { return offsets.size() - 1; }

  /// The servers hosting video i, in placement order.
  [[nodiscard]] std::span<const std::uint32_t> hosts(std::size_t i) const {
    return {servers.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }

  /// r_i, the number of replicas of video i.
  [[nodiscard]] std::size_t replicas(std::size_t i) const {
    return static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
  }

  /// The host lists unpacked into nested form (the packing constructor's
  /// inverse).
  [[nodiscard]] HostLists host_lists() const;

  /// Number of replicas stored on each of `num_servers` servers.
  [[nodiscard]] std::vector<std::size_t> replicas_per_server(
      std::size_t num_servers) const;

  /// Expected outgoing load of each server: l_j = sum of w_i over replicas
  /// hosted by j, with w_i = popularity[i] / r_i.  `popularity` must match
  /// the layout's video count.
  [[nodiscard]] std::vector<double> expected_loads(
      const std::vector<double>& popularity, std::size_t num_servers) const;

  /// The replication plan implied by this layout (r_i = replica count).
  [[nodiscard]] ReplicationPlan implied_plan() const;

  /// Throws InvalidArgumentError unless the layout realizes `plan` on
  /// `num_servers` servers within `capacity_per_server` replica slots.
  /// Delegates to the constraint auditor (src/audit): matching replica
  /// counts, distinct in-range servers per video (Eq. 6), 1 <= r_i <= N
  /// (Eq. 7), and no server over its storage capacity (Eq. 4).
  void validate(const ReplicationPlan& plan, std::size_t num_servers,
                std::size_t capacity_per_server) const;

  /// As above, and additionally checks the Eq. 5 bandwidth constraint:
  /// every server's expected outgoing load — its share of `popularity`
  /// scaled by `expected_peak_requests` requests at `bitrate_bps` each —
  /// must fit within `bandwidth_bps_per_server`.
  void validate(const ReplicationPlan& plan, std::size_t num_servers,
                std::size_t capacity_per_server,
                const std::vector<double>& popularity,
                double bandwidth_bps_per_server,
                double expected_peak_requests, double bitrate_bps) const;

  bool operator==(const Layout&) const = default;
};

}  // namespace vodrep
