#include "src/sim/dispatcher.h"

#include <algorithm>
#include <limits>

#include "src/util/error.h"

namespace vodrep {
namespace {

constexpr double kNever = -std::numeric_limits<double>::infinity();

/// Least-loaded server among `servers` that can admit the stream and passes
/// `eligible`; servers.size() when none qualifies.
template <typename Pred>
std::size_t least_loaded_admitting(const std::vector<StreamingServer>& servers,
                                   double bitrate_bps, Pred eligible) {
  std::size_t best = servers.size();
  double best_busy = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < servers.size(); ++s) {
    if (!eligible(s) || !servers[s].can_admit(bitrate_bps)) continue;
    if (servers[s].busy_bps() < best_busy) {
      best_busy = servers[s].busy_bps();
      best = s;
    }
  }
  return best;
}

}  // namespace

Dispatcher::Dispatcher(const Layout& layout, RedirectMode mode,
                       double backbone_bps, double batching_window_sec,
                       double stream_duration_sec, BatchingMode batching_mode)
    : layout_(layout),
      mode_(mode),
      backbone_bps_(backbone_bps),
      batching_window_sec_(batching_window_sec),
      stream_duration_sec_(stream_duration_sec),
      batching_mode_(batching_mode),
      rr_counter_(layout.num_videos(), 0) {
  require(backbone_bps >= 0.0, "Dispatcher: negative backbone bandwidth");
  require(batching_window_sec >= 0.0, "Dispatcher: negative batching window");
  if (batching_window_sec > 0.0) {
    require(stream_duration_sec > 0.0,
            "Dispatcher: batching needs the stream duration");
    last_stream_start_.assign(layout.servers.size(), kNever);
  }
}

double Dispatcher::joinable_offset(std::size_t server, std::size_t video,
                                   double now) const {
  if (batching_window_sec_ <= 0.0) return -1.0;
  const auto holders = layout_.hosts(video);
  for (std::size_t k = 0; k < holders.size(); ++k) {
    if (holders[k] != server) continue;
    const double start = last_stream_start_[layout_.offsets[video] + k];
    const bool ok = now - start <= batching_window_sec_ &&
                    start + stream_duration_sec_ > now;
    return ok ? now - start : -1.0;
  }
  return -1.0;
}

std::optional<DispatchDecision> Dispatcher::dispatch(
    std::size_t video, double bitrate_bps,
    const std::vector<StreamingServer>& servers, double now) {
  require(video < layout_.num_videos(), "Dispatcher: video out of range");
  const auto holders = layout_.hosts(video);
  require(!holders.empty(), "Dispatcher: video has no replica");

  // Static round-robin pick (the per-replica communication weight model of
  // Eq. 5: each replica serves a 1/r_i share of the video's requests), or
  // the precomputed pick when a routed sub-trace replay is installed.
  std::size_t pick_index;
  if (routed_) {
    require(routed_cursor_ < routed_picks_.size(),
            "Dispatcher: routed pick sequence exhausted");
    pick_index = routed_picks_[routed_cursor_++];
    require(pick_index < holders.size(),
            "Dispatcher: routed pick index out of range");
  } else {
    pick_index = rr_counter_[video] % holders.size();
    ++rr_counter_[video];
  }
  const std::size_t pick = holders[pick_index];

  // Batching: join a fresh-enough stream of the same video on the scheduled
  // replica instead of opening a full new one.  Piggyback joins are free;
  // patching joins reserve a catch-up stream for the missed prefix (and
  // fall through to a normal admission when even that does not fit).
  const double offset = joinable_offset(pick, video, now);
  if (offset >= 0.0 && !servers[pick].failed()) {
    if (batching_mode_ == BatchingMode::kPiggyback) {
      DispatchDecision decision;
      decision.server = pick;
      decision.batched = true;
      return decision;
    }
    if (offset == 0.0 || servers[pick].can_admit(bitrate_bps)) {
      DispatchDecision decision;
      decision.server = pick;
      decision.batched = true;
      decision.patch_duration_sec = offset;
      return decision;
    }
    // No room even for the patch: fall through to the normal path (which
    // will reject or redirect).
  }

  if (servers[pick].can_admit(bitrate_bps)) {
    if (!last_stream_start_.empty()) {
      last_stream_start_[layout_.offsets[video] + pick_index] = now;
    }
    return DispatchDecision{pick, false, false, false};
  }
  if (mode_ == RedirectMode::kNone) return std::nullopt;

  // Level 1: another holder serves from its own disk — free detour.
  const auto is_other_holder = [&](std::size_t s) {
    return s != pick &&
           std::find(holders.begin(), holders.end(), s) != holders.end();
  };
  const std::size_t holder =
      least_loaded_admitting(servers, bitrate_bps, is_other_holder);
  if (holder != servers.size()) {
    if (!last_stream_start_.empty()) {
      const auto k = static_cast<std::size_t>(
          std::find(holders.begin(), holders.end(), holder) - holders.begin());
      last_stream_start_[layout_.offsets[video] + k] = now;
    }
    return DispatchDecision{holder, true, false, false};
  }
  if (mode_ != RedirectMode::kBackboneProxy) return std::nullopt;

  // Level 2: proxy through an idle non-holder; the stream crosses the
  // internal backbone from a holder's disk to the proxy's outgoing link.
  // A living holder must exist to source the data (its outgoing link being
  // full is fine — the backbone is a separate network — but a crashed
  // holder has no disk to read from).
  const bool any_live_holder =
      std::any_of(holders.begin(), holders.end(),
                  [&](std::size_t s) { return !servers[s].failed(); });
  if (!any_live_holder) return std::nullopt;
  if (backbone_busy_bps_ + bitrate_bps > backbone_bps_) return std::nullopt;
  const auto is_non_holder = [&](std::size_t s) {
    return std::find(holders.begin(), holders.end(), s) == holders.end();
  };
  const std::size_t proxy =
      least_loaded_admitting(servers, bitrate_bps, is_non_holder);
  if (proxy == servers.size()) return std::nullopt;
  backbone_busy_bps_ += bitrate_bps;
  return DispatchDecision{proxy, true, true, false};
}

void Dispatcher::set_routed_picks(std::vector<std::uint32_t> picks) {
  require(mode_ == RedirectMode::kNone,
          "Dispatcher: routed pick replay requires RedirectMode::kNone — "
          "redirect retries read every holder's load");
  routed_ = true;
  routed_picks_ = std::move(picks);
  routed_cursor_ = 0;
}

void Dispatcher::release_backbone(double bitrate_bps) {
  backbone_busy_bps_ = std::max(0.0, backbone_busy_bps_ - bitrate_bps);
}

void Dispatcher::on_server_failed(std::size_t server) {
  if (last_stream_start_.empty()) return;
  for (std::size_t slot = 0; slot < layout_.servers.size(); ++slot) {
    if (layout_.servers[slot] == server) last_stream_start_[slot] = kNever;
  }
}

}  // namespace vodrep
