// Layout: the concrete assignment of every replica to a server.
//
// layout.assignment[i] is the list of distinct servers hosting a replica of
// video i (the paper's phi_i(k) mapping).  The layout, together with the
// per-replica communication weights w_i = p_i / r_i, determines the expected
// outgoing load l_j of every server (Eq. 5) and hence the load-imbalance
// degree the placement algorithms minimize.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/replication.h"

namespace vodrep {

struct Layout {
  /// assignment[i] = servers hosting video i; distinct, each < num_servers.
  std::vector<std::vector<std::size_t>> assignment;

  [[nodiscard]] std::size_t num_videos() const { return assignment.size(); }

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
};

}  // namespace vodrep
