// Problem model: the video set, the server cluster, and the fixed-bit-rate
// replication/placement problem of Section 3 of the paper.
//
// Conventions used throughout the library:
//  * Videos are identified by their popularity rank: video 0 is the most
//    popular.  Popularity vectors are normalized and non-increasing.
//  * All durations are seconds, bit rates are bits/second, storage is bytes.
//  * Under a single fixed encoding bit rate the per-server storage capacity
//    is re-expressed as a whole number of replicas (the paper does the same
//    re-definition in Section 4.1).
#pragma once

#include <cstddef>
#include <vector>

namespace vodrep {

/// The catalogue of M videos.  The paper assumes equal durations (90-minute
/// movies) and a known, non-increasing popularity vector.
struct VideoSet {
  double duration_sec = 0.0;
  std::vector<double> popularity;  ///< normalized, non-increasing, size M

  [[nodiscard]] std::size_t count() const { return popularity.size(); }
};

/// A cluster of N homogeneous servers (paper Section 3.1).
struct ClusterSpec {
  std::size_t num_servers = 0;
  double storage_bytes_per_server = 0.0;    ///< C_j in bytes
  double bandwidth_bps_per_server = 0.0;    ///< B_j, outgoing

  /// Aggregate outgoing bandwidth of the cluster.
  [[nodiscard]] double total_bandwidth_bps() const {
    return static_cast<double>(num_servers) * bandwidth_bps_per_server;
  }
  /// Aggregate storage of the cluster.
  [[nodiscard]] double total_storage_bytes() const {
    return static_cast<double>(num_servers) * storage_bytes_per_server;
  }
  /// Concurrent streams one server can sustain at the given bit rate.
  [[nodiscard]] std::size_t streams_per_server(double bitrate_bps) const;
};

/// The fixed-encoding-bit-rate instance (paper Sections 4.1–4.2): every
/// video is encoded at the same constant bit rate, so storage reduces to
/// replica slots.
struct FixedRateProblem {
  VideoSet videos;
  ClusterSpec cluster;
  double bitrate_bps = 0.0;

  /// Storage occupied by one replica, in bytes.
  [[nodiscard]] double replica_bytes() const;
  /// Replica slots per server: floor(storage / replica size).  The paper's
  /// re-defined capacity C.
  [[nodiscard]] std::size_t replica_capacity_per_server() const;
  /// Total replica slots in the cluster (N * C).
  [[nodiscard]] std::size_t total_replica_capacity() const;
  /// Cluster-wide replication degree achievable at full storage:
  /// total capacity / M.
  [[nodiscard]] double max_replication_degree() const;

  /// Throws InvalidArgumentError unless the instance is consistent: at least
  /// one server and one video, positive duration/bit rate/bandwidth, a valid
  /// popularity vector, and storage for at least one replica per video.
  void validate() const;
};

/// Builds the simulation setting of the paper's Section 5 with the storage
/// sized for the requested replication degree: N=8 servers at 1.8 Gb/s,
/// M videos (default 300) of 90 minutes at 4 Mb/s, Zipf skew `theta`.
/// `replication_degree` >= 1 sets per-server storage to hold exactly
/// round(degree * M) replicas cluster-wide (rounded up to a whole number of
/// per-server slots).
[[nodiscard]] FixedRateProblem make_paper_problem(double theta,
                                                  double replication_degree,
                                                  std::size_t num_videos = 300,
                                                  std::size_t num_servers = 8);

}  // namespace vodrep
