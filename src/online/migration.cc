#include "src/online/migration.h"

#include <algorithm>

#include "src/util/error.h"

namespace vodrep {

double MigrationPlan::bytes_moved(double replica_bytes) const {
  require(replica_bytes >= 0.0, "MigrationPlan: negative replica size");
  return static_cast<double>(copies.size()) * replica_bytes;
}

double MigrationPlan::copy_time_sec(double replica_bytes,
                                    double backbone_bps) const {
  require(backbone_bps > 0.0, "MigrationPlan: backbone must be positive");
  return bytes_moved(replica_bytes) * 8.0 / backbone_bps;
}

MigrationPlan plan_migration(const Layout& from, const Layout& to) {
  require(from.num_videos() == to.num_videos(),
          "plan_migration: layouts cover different video sets");
  MigrationPlan plan;
  for (std::size_t video = 0; video < to.num_videos(); ++video) {
    const auto old_servers = from.hosts(video);
    const auto new_servers = to.hosts(video);
    for (std::size_t server : new_servers) {
      if (std::find(old_servers.begin(), old_servers.end(), server) ==
          old_servers.end()) {
        plan.copies.push_back(ReplicaCopy{video, server});
      }
    }
    for (std::size_t server : old_servers) {
      if (std::find(new_servers.begin(), new_servers.end(), server) ==
          new_servers.end()) {
        ++plan.deletions;
      }
    }
  }
  return plan;
}

}  // namespace vodrep
