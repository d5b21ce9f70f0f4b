// vodrep_audit — constraint auditor for layout files.
//
// Loads a placement in the vodrep-layout exchange format and re-checks the
// paper's hard constraints from first principles (src/audit/audit.h):
// distinct in-range replica servers (Eq. 6), 1 <= r_i <= N (Eq. 7),
// per-server storage slots (Eq. 4) and — when a popularity file and a load
// model are given — per-server expected outgoing bandwidth (Eq. 5).
//
//   # audit a planner output against its own implied capacity
//   vodrep_audit --layout=layout.txt
//
//   # full audit including the Eq. 5 expected-load check
//   vodrep_audit --layout=layout.txt --popularity-file=counts.txt
//               --capacity=10 --bandwidth-gbps=1.8 --peak-requests=400
//               --bitrate-mbps=4
//
//   # machine-readable report
//   vodrep_audit --layout=layout.txt --json
//
// Exit status: 0 when every check passes, 1 when any constraint is violated
// (the report still prints), 2 on usage or I/O errors.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/layout_io.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"

namespace {

using namespace vodrep;

std::vector<double> read_weights(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in),
          [&] { return "cannot open popularity file: " + path; });
  std::vector<double> weights;
  double w = 0.0;
  while (in >> w) weights.push_back(w);
  require(!weights.empty(),
          [&] { return "popularity file is empty: " + path; });
  return weights;
}

// Rejects limits the audit would otherwise misread: a negative capacity cast
// to a huge slot count, or a NaN, infinite or negative load-model value that
// makes every Eq. 5 comparison pass.  0 keeps its meaning for --capacity
// (derive it) and --bandwidth-gbps (skip Eq. 5).
void validate_numeric_flags(const CliFlags& flags) {
  require(flags.get_int("capacity") >= 0, "--capacity must be >= 0");
  for (const char* name : {"bandwidth-gbps", "peak-requests"}) {
    const double value = flags.get_double(name);
    require(std::isfinite(value) && value >= 0.0, [&] {
      return std::string("--") + name + " must be finite and non-negative";
    });
  }
  const double bitrate = flags.get_double("bitrate-mbps");
  require(std::isfinite(bitrate) && bitrate > 0.0,
          "--bitrate-mbps must be finite and positive");
}

int run(int argc, char** argv) {
  CliFlags flags("vodrep_audit",
                 "Audit a layout file against the paper's Eq. 4-7 constraints");
  flags.add_string("layout", "", "layout file to audit (required)");
  flags.add_int("capacity", 0,
                "per-server replica slots (Eq. 4); 0 derives "
                "ceil(total_replicas / N) from the layout itself");
  flags.add_string("popularity-file", "",
                   "one weight per line, line number = video id; enables the "
                   "Eq. 5 expected-load check");
  flags.add_double("bandwidth-gbps", 0.0,
                   "per-server link budget for Eq. 5; 0 skips the check");
  flags.add_double("peak-requests", 0.0,
                   "expected peak concurrent requests lambda*T for Eq. 5");
  flags.add_double("bitrate-mbps", 4.0, "common stream bit rate for Eq. 5");
  flags.add_bool("json", false, "emit the report as JSON instead of text");
  if (!flags.parse(argc, argv)) return EXIT_SUCCESS;
  validate_numeric_flags(flags);

  const std::string path = flags.get_string("layout");
  require(!path.empty(), "--layout=<file> is required");
  std::ifstream in(path);
  require(static_cast<bool>(in),
          [&] { return "cannot open layout file: " + path; });
  const PlacementFile placement = load_placement(in);
  const ReplicationPlan plan = placement.layout.implied_plan();

  LayoutAuditor::Limits limits;
  limits.num_servers = placement.num_servers;
  const auto capacity = static_cast<std::size_t>(flags.get_int("capacity"));
  limits.capacity_per_server =
      capacity > 0 ? capacity
                   : (plan.total_replicas() + placement.num_servers - 1) /
                         placement.num_servers;
  limits.bandwidth_bps_per_server =
      flags.get_double("bandwidth-gbps") > 0.0
          ? units::gbps(flags.get_double("bandwidth-gbps"))
          : std::numeric_limits<double>::infinity();
  limits.expected_peak_requests = flags.get_double("peak-requests");
  limits.bitrate_bps = units::mbps(flags.get_double("bitrate-mbps"));

  std::vector<double> popularity;
  const std::vector<double>* popularity_ptr = nullptr;
  if (!flags.get_string("popularity-file").empty()) {
    popularity = normalized_popularity(
        read_weights(flags.get_string("popularity-file")));
    require(popularity.size() == placement.layout.num_videos(), [&] {
      return "popularity file has " + std::to_string(popularity.size()) +
             " weights but the layout has " +
             std::to_string(placement.layout.num_videos()) + " videos";
    });
    popularity_ptr = &popularity;
  }

  const AuditReport report =
      LayoutAuditor(limits).audit(placement.layout, &plan, popularity_ptr);
  if (flags.get_bool("json")) {
    report.write_json(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "== audit: " << path << " ==\n"
              << "videos: " << placement.layout.num_videos()
              << ", servers: " << placement.num_servers
              << ", capacity: " << limits.capacity_per_server
              << " slots/server\n"
              << "checks performed: " << report.checks_performed << "\n"
              << report.summary() << "\n";
  }
  return report.ok() ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
