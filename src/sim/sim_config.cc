// SimConfig's and SimResult's out-of-line members.  They live apart from
// engine.cc because the hot-path benches compile engine.cc a second time
// without obs hooks (src/obs/hooks.h), and these types are shared by both
// builds, so they must be defined once.
#include "src/sim/engine.h"

#include <string>

#include "src/util/error.h"

namespace vodrep {

void SimConfig::validate() const {
  require(num_servers >= 1, "SimConfig: need at least one server");
  require(bandwidth_bps_per_server > 0.0, "SimConfig: bad server bandwidth");
  if (!per_server_bandwidth_bps.empty()) {
    require(per_server_bandwidth_bps.size() == num_servers,
            "SimConfig: per-server bandwidth size mismatch");
    for (double b : per_server_bandwidth_bps) {
      require(b > 0.0, "SimConfig: bad per-server bandwidth");
    }
  }
  require(stream_bitrate_bps > 0.0, "SimConfig: bad stream bit rate");
  require(video_duration_sec > 0.0, "SimConfig: bad video duration");
  if (redirect != RedirectMode::kNone) {
    require(backbone_bps >= 0.0, "SimConfig: negative backbone bandwidth");
  }
  require(batching_window_sec >= 0.0, "SimConfig: negative batching window");
  double prev_time = 0.0;
  for (const ServerFailure& failure : failures) {
    require(failure.server < num_servers,
            "SimConfig: failure server out of range");
    require(failure.time >= prev_time,
            "SimConfig: failures must be sorted by time");
    prev_time = failure.time;
  }
}

void SimConfig::require_replication_extensions_unset(
    const char* organization) const {
  require(redirect == RedirectMode::kNone, [&] {
    return std::string(organization) +
           " simulation has no replica choice to redirect between; unset "
           "SimConfig::redirect";
  });
  require(backbone_bps == 0.0, [&] {
    return std::string(organization) +
           " simulation cannot proxy streams; unset SimConfig::backbone_bps";
  });
  require(batching_window_sec == 0.0, [&] {
    return std::string(organization) +
           " simulation does not support stream sharing; unset "
           "SimConfig::batching_window_sec";
  });
}

double SimResult::rejection_rate() const {
  return total_requests == 0
             ? 0.0
             : static_cast<double>(rejected) / static_cast<double>(total_requests);
}

double SimResult::cache_hit_ratio() const {
  const std::uint64_t total = cache_hits + cache_misses;
  return total == 0
             ? 0.0
             : static_cast<double>(cache_hits) / static_cast<double>(total);
}

double SimResult::mean_utilization() const {
  if (utilization_per_server.empty()) return 0.0;
  double sum = 0.0;
  for (double u : utilization_per_server) sum += u;
  return sum / static_cast<double>(utilization_per_server.size());
}

}  // namespace vodrep
