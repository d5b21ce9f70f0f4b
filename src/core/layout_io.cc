#include "src/core/layout_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/error.h"

namespace vodrep {
namespace {

// num_servers drives O(N) allocations downstream (the auditor's per-server
// tables), so it must be bounded before anything trusts it: a forged
// header — "-1" wraps to SIZE_MAX when read into size_t — would otherwise
// turn validation into a multi-exabyte allocation (found by
// fuzz_layout_io).  The cap is 1024x the ROADMAP's N=1024 north star.
constexpr std::size_t kMaxNumServers = std::size_t{1} << 20;
// Records are buffered as read and tables materialized only afterwards, so
// allocation stays proportional to the bytes actually in the stream; this
// caps the speculative reserve for forged counts.
constexpr std::size_t kReserveCap = 4096;

}  // namespace

void save_placement(std::ostream& os, const PlacementFile& placement) {
  // Structural validation only (distinct in-range servers, >= 1 replica);
  // storage capacity is a property of the target cluster, not of the file.
  placement.layout.validate(placement.layout.implied_plan(),
                            placement.num_servers,
                            placement.layout.num_videos() *
                                placement.num_servers);
  os << "vodrep-layout " << placement.layout.num_videos() << " "
     << placement.num_servers << "\n";
  for (std::size_t video = 0; video < placement.layout.num_videos(); ++video) {
    const auto servers = placement.layout.hosts(video);
    require(!servers.empty(), "save_placement: video has no replica");
    os << video << " " << servers.size();
    for (const std::uint32_t server : servers) os << " " << server;
    os << "\n";
  }
}

PlacementFile load_placement(std::istream& is) {
  std::string magic;
  std::size_t num_videos = 0;
  PlacementFile placement;
  is >> magic >> num_videos >> placement.num_servers;
  // Another format of the family, such as the retired prefix-fraction one,
  // fails by name rather than as a generic bad header.
  require(magic == "vodrep-layout" || !magic.starts_with("vodrep-layout"),
          [&] {
            return "load_placement: unsupported layout format '" + magic +
                   "'; only whole-file vodrep-layout files load";
          });
  require(static_cast<bool>(is) && magic == "vodrep-layout",
          "load_placement: missing vodrep-layout header");
  require(placement.num_servers <= kMaxNumServers,
          "load_placement: num_servers out of range");
  // Records are buffered as read and the tables materialized only
  // afterwards, so allocation stays proportional to the bytes actually in
  // the stream: a forged header claiming 10^18 videos fails on its missing
  // first record instead of demanding the full table up front (the
  // fuzz_layout_io target runs this parser under ASan, where a
  // header-driven pre-allocation is a crash, not a clean reject).
  struct Record {
    std::size_t video = 0;
    std::vector<std::size_t> servers;
  };
  std::vector<Record> records;
  records.reserve(std::min(num_videos, kReserveCap));
  for (std::size_t i = 0; i < num_videos; ++i) {
    Record record;
    is >> record.video;
    require(static_cast<bool>(is) && record.video < num_videos,
            "load_placement: bad video record");
    std::size_t replicas = 0;
    is >> replicas;
    require(static_cast<bool>(is), "load_placement: bad video record");
    require(replicas >= 1 && replicas <= placement.num_servers,
            "load_placement: replica count out of range");
    record.servers.reserve(std::min(replicas, kReserveCap));
    for (std::size_t k = 0; k < replicas; ++k) {
      std::size_t server = 0;
      is >> server;
      require(static_cast<bool>(is), "load_placement: truncated record");
      // Checked here, while the id is still 64 bits wide: the layout
      // stores 32-bit ids, and 2^32 + 1 must not load as server 1.
      require(server < placement.num_servers,
              "load_placement: server id out of range");
      record.servers.push_back(server);
    }
    records.push_back(std::move(record));
  }
  HostLists hosts(num_videos);
  for (auto& record : records) {
    auto& slot = hosts[record.video];
    require(slot.empty(), "load_placement: duplicate video record");
    slot = std::move(record.servers);
  }
  placement.layout = Layout(hosts);
  placement.layout.validate(placement.layout.implied_plan(),
                            placement.num_servers,
                            /*capacity_per_server=*/num_videos *
                                placement.num_servers);
  return placement;
}

}  // namespace vodrep
