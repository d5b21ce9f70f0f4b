#include "src/core/incremental_state.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/util/check.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {

namespace {
constexpr std::size_t kIndexLimit = 0xffffffffULL;

/// Index of the k-th (0-based) set bit of `word`, which has more than k.
int select_bit(std::uint64_t word, std::size_t k) {
  for (; k > 0; --k) word &= word - 1;
  return std::countr_zero(word);
}
}  // namespace

IncrementalState::IncrementalState(const ScalableProblem& problem,
                                   ScalableSolution solution)
    : problem_(&problem),
      num_servers_(problem.cluster.num_servers),
      bandwidth_cap_bps_(problem.cluster.bandwidth_bps_per_server),
      storage_cap_bytes_(problem.cluster.storage_bytes_per_server) {
  const std::size_t m = problem.videos.count();
  require(solution.bitrate_index.size() == m && solution.placement.size() == m,
          "IncrementalState: solution/problem size mismatch");
  require(m < kIndexLimit && num_servers_ < kIndexLimit &&
              problem.ladder.size() < kIndexLimit,
          "IncrementalState: index exceeds the 32-bit SoA layout");

  slot_bytes_.reserve(problem.ladder.size());
  slot_mbps_.reserve(problem.ladder.size());
  for (double rate : problem.ladder.rates_bps) {
    slot_bytes_.push_back(units::video_bytes(problem.videos.duration_sec, rate));
    slot_mbps_.push_back(units::to_mbps(rate));
  }
  peak_requests_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    peak_requests_.push_back(problem.expected_peak_requests *
                             problem.videos.popularity[i]);
  }

  bitrate_index_.resize(m);
  replica_count_.assign(m, 0);
  replica_server_.assign(m * kInlineReplicas, 0);
  replica_pos_.assign(m * kInlineReplicas, 0);
  spill_server_.resize(m);
  spill_pos_.resize(m);
  storage_bytes_.assign(num_servers_, 0.0);
  bandwidth_bps_.assign(num_servers_, 0.0);
  server_videos_.resize(num_servers_);

  for (std::size_t i = 0; i < m; ++i) {
    const auto& servers = solution.placement[i];
    require(!servers.empty(), "IncrementalState: video with no replica");
    const std::size_t idx = solution.bitrate_index[i];
    require(idx < problem.ladder.size(),
            "IncrementalState: ladder index out of range");
    bitrate_index_[i] = static_cast<std::uint32_t>(idx);
    const double per_replica_bps =
        peak_requests_[i] / static_cast<double>(servers.size()) *
        problem.ladder.rates_bps[idx];
    const auto video = static_cast<std::uint32_t>(i);
    for (std::size_t s : servers) {
      require(s < num_servers_, "IncrementalState: server index out of range");
      require(!is_hosted(i, s), "IncrementalState: duplicate replica");
      storage_bytes_[s] += slot_bytes_[idx];
      bandwidth_bps_[s] += per_replica_bps;
      push_replica(video, static_cast<std::uint32_t>(s),
                   static_cast<std::uint32_t>(server_videos_[s].size()));
      server_videos_[s].push_back(video);
    }
    rate_sum_mbps_ += slot_mbps_[idx];
    replica_sum_ += servers.size();
  }

  block_words_ = problem.ladder.size() + 1;
  position_bits_.resize(num_servers_);
  for (std::uint32_t s = 0; s < num_servers_; ++s) {
    const std::vector<std::uint32_t>& hosted = server_videos_[s];
    position_bits_[s].assign((hosted.size() + 63) / 64 * block_words_, 0);
    for (std::uint32_t p = 0; p < hosted.size(); ++p) {
      const std::uint32_t video = hosted[p];
      flip_position(s, p, bitrate_index_[video]);
      if (bitrate_index_[video] == 0 && replica_count_[video] == 1) {
        flip_position(s, p, pinned_word());
      }
    }
  }

  for (std::size_t s = 0; s < num_servers_; ++s) {
    total_load_bps_ += bandwidth_bps_[s];
    if (bandwidth_bps_[s] > bandwidth_cap_bps_) {
      overflow_sum_ += (bandwidth_bps_[s] - bandwidth_cap_bps_) /
                       bandwidth_cap_bps_;
      ++overflow_count_;
    }
    if (storage_bytes_[s] > storage_cap_bytes_) ++storage_over_count_;
    if (bandwidth_bps_[s] > bandwidth_bps_[max_server_]) max_server_ = s;
  }
}

ScalableSolution IncrementalState::to_solution() const {
  ScalableSolution solution;
  const std::size_t m = num_videos();
  solution.bitrate_index.assign(bitrate_index_.begin(), bitrate_index_.end());
  solution.placement.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const std::uint32_t> servers = replicas_of(i);
    solution.placement[i].assign(servers.begin(), servers.end());
  }
  return solution;
}

ScalableSolution IncrementalState::solution_at(Checkpoint mark) const {
  require(mark <= journal_.size(), "solution_at: checkpoint from the future");
  ScalableSolution solution = to_solution();
  // rollback()'s undo, most recent first, on the solution's replica lists:
  // an undone add swap-removes like remove_replica_at, an undone drop
  // appends like push_replica.
  for (std::size_t e = journal_.size(); e > mark; --e) {
    const JournalEntry& entry = journal_[e - 1];
    std::vector<std::size_t>& servers = solution.placement[entry.video];
    switch (entry.op) {
      case Op::kSetBitrate:
        solution.bitrate_index[entry.video] = entry.aux;
        break;
      case Op::kAddReplica:
        *std::find(servers.begin(), servers.end(), entry.aux) = servers.back();
        servers.pop_back();
        break;
      case Op::kDropReplica:
        servers.push_back(entry.aux);
        break;
    }
  }
  return solution;
}

std::pair<std::uint32_t*, std::uint32_t*> IncrementalState::replica_arrays(
    std::uint32_t video) {
  if (replica_count_[video] <= kInlineReplicas) {
    return {&replica_server_[static_cast<std::size_t>(video) * kInlineReplicas],
            &replica_pos_[static_cast<std::size_t>(video) * kInlineReplicas]};
  }
  return {spill_server_[video].data(), spill_pos_[video].data()};
}

std::size_t IncrementalState::find_replica(std::uint32_t video,
                                           std::uint32_t server) const {
  const std::span<const std::uint32_t> servers = replicas_of(video);
  for (std::size_t j = 0; j < servers.size(); ++j) {
    if (servers[j] == server) return j;
  }
  return servers.size();
}

void IncrementalState::push_replica(std::uint32_t video, std::uint32_t server,
                                    std::uint32_t pos) {
  const std::uint32_t count = replica_count_[video];
  const std::size_t base = static_cast<std::size_t>(video) * kInlineReplicas;
  if (count < kInlineReplicas) {
    replica_server_[base + count] = server;
    replica_pos_[base + count] = pos;
  } else {
    std::vector<std::uint32_t>& servers = spill_server_[video];
    std::vector<std::uint32_t>& positions = spill_pos_[video];
    if (count == kInlineReplicas) {
      // Crossing the strip boundary: the whole set moves to the heap (the
      // vectors keep their capacity across spill/un-spill round trips).
      // Pointers come from data(): for the last video the strip end is
      // size(), where operator[] is out of range.
      const std::uint32_t* strip_servers = replica_server_.data() + base;
      const std::uint32_t* strip_pos = replica_pos_.data() + base;
      servers.assign(strip_servers, strip_servers + kInlineReplicas);
      positions.assign(strip_pos, strip_pos + kInlineReplicas);
    }
    servers.push_back(server);
    positions.push_back(pos);
  }
  replica_count_[video] = count + 1;
}

void IncrementalState::remove_replica_at(std::uint32_t video,
                                         std::size_t index) {
  const std::uint32_t count = replica_count_[video];
  VODREP_DCHECK_LT(index, static_cast<std::size_t>(count),
                   "remove_replica_at: index out of range");
  if (count <= kInlineReplicas) {
    const std::size_t base = static_cast<std::size_t>(video) * kInlineReplicas;
    replica_server_[base + index] = replica_server_[base + count - 1];
    replica_pos_[base + index] = replica_pos_[base + count - 1];
  } else {
    std::vector<std::uint32_t>& servers = spill_server_[video];
    std::vector<std::uint32_t>& positions = spill_pos_[video];
    servers[index] = servers.back();
    positions[index] = positions.back();
    servers.pop_back();
    positions.pop_back();
    if (count - 1 == kInlineReplicas) {
      // Back at the strip boundary: copy the set inline and keep the spill
      // capacity around for the next excursion.
      const std::size_t base =
          static_cast<std::size_t>(video) * kInlineReplicas;
      std::copy(servers.begin(), servers.end(), &replica_server_[base]);
      std::copy(positions.begin(), positions.end(), &replica_pos_[base]);
      servers.clear();
      positions.clear();
    }
  }
  replica_count_[video] = count - 1;
}

void IncrementalState::flip_position(std::uint32_t server, std::uint32_t pos,
                                     std::size_t word) {
  position_bits_[server][pos / 64 * block_words_ + word] ^= std::uint64_t{1}
                                                            << (pos % 64);
}

std::size_t IncrementalState::count_clear(std::size_t server,
                                          std::size_t word) const {
  const std::vector<std::uint64_t>& bits = position_bits_[server];
  std::size_t set = 0;
  for (std::size_t w = word; w < bits.size(); w += block_words_) {
    set += static_cast<std::size_t>(std::popcount(bits[w]));
  }
  return server_videos_[server].size() - set;
}

std::uint32_t IncrementalState::kth_clear(std::size_t server,
                                          std::size_t word,
                                          std::size_t k) const {
  VODREP_DCHECK_LT(k, count_clear(server, word),
                   "position set: pick index out of range");
  const std::vector<std::uint64_t>& bits = position_bits_[server];
  const std::vector<std::uint32_t>& hosted = server_videos_[server];
  for (std::size_t base = 0;; base += 64) {
    std::uint64_t clear = ~bits[base / 64 * block_words_ + word];
    const std::size_t size = hosted.size() - base;
    if (size < 64) clear &= (std::uint64_t{1} << size) - 1;
    const auto count = static_cast<std::size_t>(std::popcount(clear));
    if (k < count) {
      return hosted[base + static_cast<std::size_t>(select_bit(clear, k))];
    }
    k -= count;
  }
}

std::uint32_t IncrementalState::cheapest_sheddable(std::size_t server) const {
  const std::vector<std::uint64_t>& bits = position_bits_[server];
  const std::vector<std::uint32_t>& hosted = server_videos_[server];
  const std::size_t pinned = pinned_word();
  for (std::size_t slot = 0; slot < pinned; ++slot) {
    bool found = false;
    std::uint32_t pick = 0;
    for (std::size_t b = 0; b < bits.size(); b += block_words_) {
      const std::size_t base = b / block_words_ * 64;
      for (std::uint64_t w = bits[b + slot] & ~bits[b + pinned]; w != 0;
           w &= w - 1) {
        pick = std::max(pick, hosted[base + static_cast<std::size_t>(
                                                std::countr_zero(w))]);
        found = true;
      }
    }
    if (found) return pick;
  }
  return kNoVideo;
}

void IncrementalState::add_load(std::size_t server, double delta) {
  const double cap = bandwidth_cap_bps_;
  const double before = bandwidth_bps_[server];
  const double after = before + delta;
  bandwidth_bps_[server] = after;
  total_load_bps_ += delta;

  // Branch-free overflow accounting: the ternaries compile to conditional
  // selects, and the unsigned count update wraps correctly for -1/0/+1.
  const double over_before = before > cap ? (before - cap) / cap : 0.0;
  const double over_after = after > cap ? (after - cap) / cap : 0.0;
  overflow_count_ += static_cast<std::size_t>(over_after > 0.0) -
                     static_cast<std::size_t>(over_before > 0.0);
  overflow_sum_ += over_after - over_before;
  // With no overflowing server the penalty is exactly zero; resetting here
  // discards the drift accumulated across past excursions over the cap.
  overflow_sum_ = overflow_count_ == 0 ? 0.0 : overflow_sum_;

  // Branchless lazy max: a shrinking max server defers the O(N) re-scan; a
  // growing non-max server takes the lead immediately.
  const bool is_max = server == max_server_;
  max_dirty_ = max_dirty_ || (is_max && delta < 0.0);
  const bool take_lead =
      !max_dirty_ && !is_max && after > bandwidth_bps_[max_server_];
  max_server_ = take_lead ? server : max_server_;
}

void IncrementalState::add_storage(std::size_t server, double delta) {
  const double cap = storage_cap_bytes_;
  const double before = storage_bytes_[server];
  const double after = before + delta;
  storage_bytes_[server] = after;
  storage_over_count_ += static_cast<std::size_t>(after > cap) -
                         static_cast<std::size_t>(before > cap);
}

double IncrementalState::max_bandwidth_bps() const {
  if (max_dirty_) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_servers_; ++s) {
      if (bandwidth_bps_[s] > bandwidth_bps_[best]) best = s;
    }
    max_server_ = best;
    max_dirty_ = false;
  }
  return bandwidth_bps_[max_server_];
}

void IncrementalState::apply_set_bitrate(std::uint32_t video,
                                         std::uint32_t ladder_index,
                                         bool journal) {
  const std::uint32_t prev = bitrate_index_[video];
  if (prev == ladder_index) return;
  if (journal) journal_.push_back({Op::kSetBitrate, video, prev});

  const std::uint32_t count = replica_count_[video];
  const auto [servers, positions] = replica_arrays(video);
  const double delta_bytes = slot_bytes_[ladder_index] - slot_bytes_[prev];
  const double delta_bps = peak_requests_[video] / static_cast<double>(count) *
                           (problem_->ladder.rates_bps[ladder_index] -
                            problem_->ladder.rates_bps[prev]);
  // A lone replica is pinned exactly while it sits at slot 0.
  const bool repin = count == 1 && (prev == 0 || ladder_index == 0);
  for (std::uint32_t j = 0; j < count; ++j) {
    add_storage(servers[j], delta_bytes);
    add_load(servers[j], delta_bps);
    flip_position(servers[j], positions[j], prev);
    flip_position(servers[j], positions[j], ladder_index);
    if (repin) flip_position(servers[j], positions[j], pinned_word());
  }
  rate_sum_mbps_ += slot_mbps_[ladder_index] - slot_mbps_[prev];
  bitrate_index_[video] = ladder_index;
}

void IncrementalState::apply_add_replica(std::uint32_t video,
                                         std::uint32_t server, bool journal) {
  if (journal) journal_.push_back({Op::kAddReplica, video, server});

  const std::uint32_t idx = bitrate_index_[video];
  const double rate = problem_->ladder.rates_bps[idx];
  const auto r_old = static_cast<double>(replica_count_[video]);
  const double per_old = peak_requests_[video] / r_old * rate;
  const double per_new = peak_requests_[video] / (r_old + 1.0) * rate;
  // Adding a host redistributes this video's requests over r+1 replicas, so
  // every existing host sheds a share of its load.
  for (std::uint32_t s : replicas_of(video)) add_load(s, per_new - per_old);
  add_storage(server, slot_bytes_[idx]);
  add_load(server, per_new);
  if (replica_count_[video] == 1 && idx == 0) {
    // The lone replica gains a sibling, so it can be dropped now.
    const auto [servers, positions] = replica_arrays(video);
    flip_position(servers[0], positions[0], pinned_word());
  }
  const auto pos = static_cast<std::uint32_t>(server_videos_[server].size());
  std::vector<std::uint64_t>& bits = position_bits_[server];
  if (pos % 64 == 0) bits.resize(bits.size() + block_words_, 0);
  flip_position(server, pos, idx);
  push_replica(video, server, pos);
  server_videos_[server].push_back(video);
  ++replica_sum_;
}

void IncrementalState::apply_drop_replica(std::uint32_t video,
                                          std::uint32_t server, bool journal) {
  if (journal) journal_.push_back({Op::kDropReplica, video, server});

  const std::uint32_t idx = bitrate_index_[video];
  const double rate = problem_->ladder.rates_bps[idx];
  const auto r_old = static_cast<double>(replica_count_[video]);
  const double per_old = peak_requests_[video] / r_old * rate;
  const double per_new = peak_requests_[video] / (r_old - 1.0) * rate;

  const std::size_t index = find_replica(video, server);
  VODREP_DCHECK_LT(index, static_cast<std::size_t>(replica_count_[video]),
                   "drop_replica: replica set lost track of a replica");
  const std::uint32_t pos = replica_arrays(video).second[index];
  remove_replica_at(video, index);

  add_storage(server, -slot_bytes_[idx]);
  add_load(server, -per_old);
  for (std::uint32_t s : replicas_of(video)) add_load(s, per_new - per_old);

  std::vector<std::uint32_t>& hosted = server_videos_[server];
  VODREP_DCHECK_LT(static_cast<std::size_t>(pos), hosted.size(),
                   "drop_replica: reverse index position out of range");
  VODREP_DCHECK_EQ(hosted[pos], video,
                   "drop_replica: reverse index points at the wrong video");
  const auto last = static_cast<std::uint32_t>(hosted.size() - 1);
  const std::uint32_t moved = hosted[last];
  hosted[pos] = moved;
  hosted.pop_back();
  // The position sets mirror the swap-remove: clear the hole (a video with
  // two or more replicas is never pinned), then move the last position's
  // bits into it.
  flip_position(server, pos, idx);
  if (moved != video) {
    // Tell the moved video's replica entry about its new position.
    auto [servers, positions] = replica_arrays(moved);
    const std::size_t moved_index = find_replica(moved, server);
    VODREP_DCHECK_LT(moved_index,
                     static_cast<std::size_t>(replica_count_[moved]),
                     "drop_replica: swap-removed video not hosted here");
    positions[moved_index] = pos;
    (void)servers;
    const std::uint32_t moved_slot = bitrate_index_[moved];
    flip_position(server, last, moved_slot);
    flip_position(server, pos, moved_slot);
    if (moved_slot == 0 && replica_count_[moved] == 1) {
      flip_position(server, last, pinned_word());
      flip_position(server, pos, pinned_word());
    }
  }
  std::vector<std::uint64_t>& bits = position_bits_[server];
  if (last % 64 == 0) bits.resize(bits.size() - block_words_);
  if (replica_count_[video] == 1 && idx == 0) {
    // The remaining replica is the video's last: pinned.
    const auto [servers, positions] = replica_arrays(video);
    flip_position(servers[0], positions[0], pinned_word());
  }
  if (hosted.empty()) {
    // An empty server's usage is exactly zero; snap there so add/sub drift
    // cannot leave a (possibly negative) residue.  x + (-x) is exactly +0.0,
    // so routing through the accounting helpers keeps the overflow counts
    // consistent.
    add_storage(server, -storage_bytes_[server]);
    add_load(server, -bandwidth_bps_[server]);
  }
  VODREP_DCHECK_GE(storage_bytes_[server], -1e-3,
                   "drop_replica: negative cached storage after removal");
  VODREP_DCHECK_GT(replica_sum_, std::size_t{0},
                   "drop_replica: replica sum underflow");
  --replica_sum_;
}

void IncrementalState::set_bitrate(std::size_t video, std::size_t ladder_index) {
  require(video < num_videos(), "set_bitrate: video out of range");
  require(ladder_index < problem_->ladder.size(),
          "set_bitrate: ladder index out of range");
  apply_set_bitrate(static_cast<std::uint32_t>(video),
                    static_cast<std::uint32_t>(ladder_index),
                    /*journal=*/true);
}

void IncrementalState::add_replica(std::size_t video, std::size_t server) {
  require(video < num_videos(), "add_replica: video out of range");
  require(server < num_servers_, "add_replica: server out of range");
  require(!is_hosted(video, server), "add_replica: replica already hosted");
  apply_add_replica(static_cast<std::uint32_t>(video),
                    static_cast<std::uint32_t>(server), /*journal=*/true);
}

void IncrementalState::drop_replica(std::size_t video, std::size_t server) {
  require(video < num_videos(), "drop_replica: video out of range");
  require(server < num_servers_, "drop_replica: server out of range");
  require(is_hosted(video, server), "drop_replica: replica not hosted");
  require(replica_count_[video] >= 2,
          "drop_replica: cannot drop the last replica (Eq. 6)");
  apply_drop_replica(static_cast<std::uint32_t>(video),
                     static_cast<std::uint32_t>(server), /*journal=*/true);
}

void IncrementalState::rollback(Checkpoint mark) {
  require(mark <= journal_.size(), "rollback: checkpoint from the future");
  while (journal_.size() > mark) {
    const JournalEntry entry = journal_.back();
    journal_.pop_back();
    switch (entry.op) {
      case Op::kSetBitrate:
        apply_set_bitrate(entry.video, entry.aux, /*journal=*/false);
        break;
      case Op::kAddReplica:
        apply_drop_replica(entry.video, entry.aux, /*journal=*/false);
        break;
      case Op::kDropReplica:
        apply_add_replica(entry.video, entry.aux, /*journal=*/false);
        break;
    }
  }
}

double IncrementalState::objective() const {
  const auto m = static_cast<double>(num_videos());
  const auto n = static_cast<double>(num_servers_);
  const double mean_rate_mbps = rate_sum_mbps_ / m;
  const double mean_degree_normalized =
      static_cast<double>(replica_sum_) / m / n;
  const ObjectiveWeights& weights = problem_->weights;
  double l = 0.0;
  if (weights.imbalance_definition == ImbalanceDefinition::kMaxRelative) {
    const double mean = total_load_bps_ / n;
    if (mean > 0.0) {
      l = std::max(0.0, (max_bandwidth_bps() - mean) / mean);
    }
  } else {
    l = imbalance_cv(bandwidth_bps_);
  }
  return mean_rate_mbps + weights.alpha * mean_degree_normalized -
         weights.beta * l;
}

double IncrementalState::relative_bandwidth_overflow() const {
  return overflow_count_ == 0 ? 0.0 : std::max(0.0, overflow_sum_);
}

void IncrementalState::debug_inject_drift(std::size_t server,
                                          double storage_delta_bytes,
                                          double bandwidth_delta_bps) {
  require(server < num_servers_, "debug_inject_drift: server out of range");
  storage_bytes_[server] += storage_delta_bytes;
  bandwidth_bps_[server] += bandwidth_delta_bps;
}

}  // namespace vodrep
