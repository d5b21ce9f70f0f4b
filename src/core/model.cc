#include "src/core/model.h"

#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace vodrep {

std::size_t ClusterSpec::streams_per_server(double bitrate_bps) const {
  require(bitrate_bps > 0.0, "streams_per_server: bit rate must be positive");
  return static_cast<std::size_t>(bandwidth_bps_per_server / bitrate_bps);
}

double FixedRateProblem::replica_bytes() const {
  return units::video_bytes(videos.duration_sec, bitrate_bps);
}

std::size_t FixedRateProblem::replica_capacity_per_server() const {
  const double bytes = replica_bytes();
  require(bytes > 0.0, "replica_capacity_per_server: zero-sized replica");
  return static_cast<std::size_t>(cluster.storage_bytes_per_server / bytes);
}

std::size_t FixedRateProblem::total_replica_capacity() const {
  return cluster.num_servers * replica_capacity_per_server();
}

double FixedRateProblem::max_replication_degree() const {
  require(videos.count() > 0, "max_replication_degree: empty video set");
  return static_cast<double>(total_replica_capacity()) /
         static_cast<double>(videos.count());
}

void FixedRateProblem::validate() const {
  require(cluster.num_servers >= 1, "problem: need at least one server");
  require(videos.count() >= 1, "problem: need at least one video");
  require(videos.duration_sec > 0.0, "problem: duration must be positive");
  require(bitrate_bps > 0.0, "problem: bit rate must be positive");
  require(cluster.bandwidth_bps_per_server >= bitrate_bps,
          "problem: a server cannot stream even one video");
  require(is_popularity_vector(videos.popularity),
          "problem: popularity must be normalized and non-increasing");
  require(total_replica_capacity() >= videos.count(),
          "problem: cluster storage cannot hold one replica of every video");
}

FixedRateProblem make_paper_problem(double theta, double replication_degree,
                                    std::size_t num_videos,
                                    std::size_t num_servers) {
  require(replication_degree >= 1.0,
          "make_paper_problem: replication degree must be >= 1");
  FixedRateProblem problem;
  problem.videos.duration_sec = units::minutes(90);
  problem.videos.popularity = zipf_popularity(num_videos, theta);
  problem.bitrate_bps = units::mbps(4);
  problem.cluster.num_servers = num_servers;
  problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
  // Size the per-server storage for the requested cluster-wide replica
  // budget round(degree * M), rounded up to whole per-server slots.  The
  // replication policies receive the exact budget separately, so the degree
  // realized by a plan matches `replication_degree` up to rounding.
  const auto budget = static_cast<std::size_t>(
      std::llround(replication_degree * static_cast<double>(num_videos)));
  const std::size_t slots_per_server =
      (budget + num_servers - 1) / num_servers;
  problem.cluster.storage_bytes_per_server =
      static_cast<double>(slots_per_server) * problem.replica_bytes();
  problem.validate();
  return problem;
}

}  // namespace vodrep
