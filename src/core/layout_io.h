// Text serialization of placements (replication plan + layout).
//
// Operational workflows need the computed placement to leave the process:
// a planner writes it, the fleet tooling reads it, tomorrow's planner diffs
// against it (see online/migration.h).  The format is line-oriented and
// carries whole-file replicas:
//
//   vodrep-layout <num_videos> <num_servers>
//   <video_id> <replicas> <server_1> ... <server_r>
//   ...
//
// Records may appear in any order; each video appears exactly once.  Any
// other `vodrep-layout-*` header, such as the retired format that carried
// per-video prefix fractions, is rejected with an error naming it.
#pragma once

#include <iosfwd>

#include "src/core/layout.h"
#include "src/core/replication.h"

namespace vodrep {

/// A placement as it travels between tools.
struct PlacementFile {
  std::size_t num_servers = 0;
  Layout layout;

  /// The replication plan is implied: r_i = layout.replicas(i).
  [[nodiscard]] ReplicationPlan plan() const { return layout.implied_plan(); }
};

/// Writes the placement; throws InvalidArgumentError if the layout is
/// internally inconsistent with `num_servers`.
void save_placement(std::ostream& os, const PlacementFile& placement);

/// Parses the save_placement format; validates distinct, in-range servers
/// (every id is range-checked before it narrows to the layout's 32 bits).
/// Throws InvalidArgumentError on malformed input.
[[nodiscard]] PlacementFile load_placement(std::istream& is);

}  // namespace vodrep
