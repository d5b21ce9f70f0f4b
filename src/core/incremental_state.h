// Incremental annealing state for the scalable-bit-rate problem.
//
// The SA solver proposes millions of small moves (raise one video's rate,
// add or drop one replica).  Re-deriving per-server usage and the Eq. 1
// objective from scratch per candidate costs O(M*r + N); this class keeps
// that state live and updates it in O(r) per primitive move, where r is the
// touched video's replica count (<= N and typically tiny).
//
// Storage is structure-of-arrays, sized for the ROADMAP's M=1M x N=1024
// regime:
//
//   * per-server storage (Eq. 4 LHS) and expected bandwidth (Eq. 5 LHS) in
//     flat contiguous double arrays;
//   * per-video ladder slot and replica count in flat uint32 arrays;
//   * each video's replica set (hosting servers + the replica's position in
//     the server's reverse index) inline in a fixed kInlineReplicas-wide
//     uint32 strip — the common r<=4 case touches one cache line and zero
//     heap indirections — spilling the whole set to a per-video heap vector
//     only while r exceeds the strip (the old dense M*N position table would
//     be 8 GB at the north-star scale);
//   * a server -> hosted-videos reverse index (swap-remove, O(1) updates) so
//     neighborhood generation never rescans the placement of all M videos;
//   * per-server position sets over that index, one bitset per ladder slot
//     and one of the pinned videos (slot 0 with a single replica: nothing
//     left to shed), so the SA's raise, shrink and repair picks are popcount
//     and select over ceil(hosted / 64) words instead of hosted-list scans;
//     a move updates them with O(r) bit flips;
//   * the objective's running sums (encoding-rate sum, replica count, total
//     cluster load), the Eq. 2 max term via a branchless lazy max, and the
//     soft bandwidth-overflow penalty with an overflowing-server count so
//     the all-feasible case pays nothing and accumulates no float drift;
//   * an overflowing-server count for storage too, so repair loops can skip
//     their O(N) scan in the common nothing-to-fix case.
//
// Mutations are journaled: `checkpoint()` marks the journal, `rollback(mark)`
// undoes every primitive op back to the mark (a rejected composite
// move-plus-repair), `commit()` forgets the journal.  Invariants (running
// sums equal the from-scratch `compute_usage` + `objective_value` up to
// float drift) are enforced by tests/incremental_state_test.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/scalable.h"

namespace vodrep {

class IncrementalState {
 public:
  using Checkpoint = std::size_t;

  /// Consumes `solution` and derives all running state from it in
  /// O(M*r + N).  `problem` must outlive this object.
  IncrementalState(const ScalableProblem& problem, ScalableSolution solution);

  // --- Primitive mutations (journaled; see checkpoint/rollback/commit) ---

  /// Re-encodes `video` at ladder slot `ladder_index`; O(r) usage updates.
  void set_bitrate(std::size_t video, std::size_t ladder_index);
  /// Hosts a new replica of `video` on `server` (must not already host it).
  void add_replica(std::size_t video, std::size_t server);
  /// Removes the replica of `video` on `server`; never the last replica.
  void drop_replica(std::size_t video, std::size_t server);

  // --- Transaction control ---

  [[nodiscard]] Checkpoint checkpoint() const { return journal_.size(); }
  /// Undoes journaled mutations, most recent first, back to `mark`.
  void rollback(Checkpoint mark);
  /// Accepts all journaled mutations (empties the undo journal).
  void commit() { journal_.clear(); }

  // --- Observers ---

  [[nodiscard]] const ScalableProblem& problem() const { return *problem_; }
  /// Materializes the current configuration as a ScalableSolution, O(M*r).
  /// The SoA layout keeps no solution object live, so this is a snapshot
  /// for extraction, auditing, and interop — never call it per move.
  [[nodiscard]] ScalableSolution to_solution() const;
  /// to_solution() of the configuration at `mark`, without rolling back:
  /// exactly what rollback(mark) followed by to_solution() would return,
  /// replica order included, at the cost of one solution instead of a copy
  /// of the state.
  [[nodiscard]] ScalableSolution solution_at(Checkpoint mark) const;

  [[nodiscard]] std::size_t num_videos() const { return bitrate_index_.size(); }
  [[nodiscard]] std::size_t bitrate_index(std::size_t video) const {
    return bitrate_index_[video];
  }
  [[nodiscard]] std::size_t replica_count(std::size_t video) const {
    return replica_count_[video];
  }
  /// Servers hosting `video`, in unspecified order (swap-remove set); a
  /// contiguous view into the inline strip or the spill vector.
  [[nodiscard]] std::span<const std::uint32_t> replicas_of(
      std::size_t video) const {
    const std::uint32_t count = replica_count_[video];
    return count <= kInlineReplicas
               ? std::span<const std::uint32_t>(
                     &replica_server_[video * kInlineReplicas], count)
               : std::span<const std::uint32_t>(spill_server_[video].data(),
                                                count);
  }
  /// O(r) membership test over the replica strip.
  [[nodiscard]] bool is_hosted(std::size_t video, std::size_t server) const {
    const auto target = static_cast<std::uint32_t>(server);
    for (std::uint32_t s : replicas_of(video)) {
      if (s == target) return true;
    }
    return false;
  }

  [[nodiscard]] const std::vector<double>& storage_bytes() const {
    return storage_bytes_;
  }
  [[nodiscard]] const std::vector<double>& bandwidth_bps() const {
    return bandwidth_bps_;
  }
  /// Videos hosted on `server`, in unspecified order (swap-remove index).
  [[nodiscard]] const std::vector<std::uint32_t>& videos_on(
      std::size_t server) const {
    return server_videos_[server];
  }

  // --- Position-set queries, in videos_on(server) order ---

  /// cheapest_sheddable() of a server with nothing to shed.
  static constexpr std::uint32_t kNoVideo = 0xffffffffu;
  /// Videos on `server` below the top ladder slot (a rate left to raise).
  [[nodiscard]] std::size_t count_below_top(std::size_t server) const {
    return count_clear(server, pinned_word() - 1);
  }
  /// The k-th of them in videos_on(server) order; k < count_below_top().
  [[nodiscard]] std::uint32_t below_top_at(std::size_t server,
                                           std::size_t k) const {
    return kth_clear(server, pinned_word() - 1, k);
  }
  /// Videos on `server` that are not pinned: a rate above slot 0 to lower
  /// or a replica that is not the video's last.
  [[nodiscard]] std::size_t count_sheddable(std::size_t server) const {
    return count_clear(server, pinned_word());
  }
  /// The k-th of them in videos_on(server) order; k < count_sheddable().
  [[nodiscard]] std::uint32_t sheddable_at(std::size_t server,
                                           std::size_t k) const {
    return kth_clear(server, pinned_word(), k);
  }
  /// The sheddable video on `server` at the lowest ladder slot, ties to the
  /// highest video id (a strict total order, so the answer does not depend
  /// on the list order); kNoVideo when nothing is sheddable.
  [[nodiscard]] std::uint32_t cheapest_sheddable(std::size_t server) const;

  /// True while any server exceeds its storage (resp. bandwidth) capacity;
  /// O(1), maintained alongside the usage arrays.  Lets repair loops skip
  /// their per-server scan in the common nothing-overflowing case.
  [[nodiscard]] bool any_storage_overflow() const {
    return storage_over_count_ != 0;
  }
  [[nodiscard]] bool any_bandwidth_overflow() const {
    return overflow_count_ != 0;
  }

  /// Eq. 1 objective of the current configuration from the running sums;
  /// O(1) except for the lazy max re-scan (O(N)) after the max server's load
  /// decreased.  The Eq. 3 (CV) imbalance definition is computed over the
  /// live load vector in O(N) — no running sum of squares, whose
  /// cancellation would cost precision exactly when loads are nearly equal.
  [[nodiscard]] double objective() const;
  /// Soft-constraint term: sum over servers of max(0, (l_j - B) / B).
  [[nodiscard]] double relative_bandwidth_overflow() const;
  /// Largest per-server bandwidth load (lazy max).
  [[nodiscard]] double max_bandwidth_bps() const;

  /// Test hook for the audit layer (LayoutAuditor::audit_state): additively
  /// perturbs the cached per-server sums while leaving the configuration
  /// intact, so tests can prove that cache drift is detected.  Never called
  /// by solvers.
  void debug_inject_drift(std::size_t server, double storage_delta_bytes,
                          double bandwidth_delta_bps);

  /// Replica sets at or below this count live inline in the SoA strip;
  /// larger sets spill to a per-video heap vector (and move back when they
  /// shrink to the strip again).  Exposed for the boundary property tests.
  static constexpr std::uint32_t kInlineReplicas = 4;

 private:
  enum class Op : unsigned char {
    kSetBitrate,
    kAddReplica,
    kDropReplica,
  };
  struct JournalEntry {
    Op op;
    std::uint32_t video;
    std::uint32_t aux;  ///< prev ladder index (kSetBitrate) or server id
  };

  void apply_set_bitrate(std::uint32_t video, std::uint32_t ladder_index,
                         bool journal);
  void apply_add_replica(std::uint32_t video, std::uint32_t server,
                         bool journal);
  void apply_drop_replica(std::uint32_t video, std::uint32_t server,
                          bool journal);
  /// Single entry point for load changes: maintains the total-load sum, the
  /// overflow penalty term, and the lazy-max bookkeeping.
  void add_load(std::size_t server, double delta);
  /// Single entry point for storage changes: maintains the overflow count.
  void add_storage(std::size_t server, double delta);

  /// Appends (server, pos) to video's replica set, spilling inline entries
  /// to the heap when the strip overflows.
  void push_replica(std::uint32_t video, std::uint32_t server,
                    std::uint32_t pos);
  /// Swap-removes replica entry `index`, un-spilling back to the strip when
  /// the set shrinks to kInlineReplicas.
  void remove_replica_at(std::uint32_t video, std::size_t index);
  /// Index of `server` in video's replica set; count when absent.
  [[nodiscard]] std::size_t find_replica(std::uint32_t video,
                                         std::uint32_t server) const;
  /// Mutable (servers, positions) base pointers of video's replica set.
  [[nodiscard]] std::pair<std::uint32_t*, std::uint32_t*> replica_arrays(
      std::uint32_t video);

  /// Word of a position block holding the pinned set; words below it are
  /// the ladder slots, so the top slot is pinned_word() - 1.
  [[nodiscard]] std::size_t pinned_word() const { return block_words_ - 1; }
  /// Toggles bit `pos` of set `word` on `server`.
  void flip_position(std::uint32_t server, std::uint32_t pos,
                     std::size_t word);
  /// Positions on `server` whose bit in set `word` is clear.
  [[nodiscard]] std::size_t count_clear(std::size_t server,
                                        std::size_t word) const;
  /// The video at the k-th of those positions, in list order.
  [[nodiscard]] std::uint32_t kth_clear(std::size_t server, std::size_t word,
                                        std::size_t k) const;

  const ScalableProblem* problem_;
  std::size_t num_servers_ = 0;
  double bandwidth_cap_bps_ = 0.0;
  double storage_cap_bytes_ = 0.0;

  // Per-ladder-slot constants (all videos share the paper's fixed duration).
  std::vector<double> slot_bytes_;
  std::vector<double> slot_mbps_;
  // Per-video expected peak requests: lambda*T * p_i.
  std::vector<double> peak_requests_;

  // SoA per-video configuration.
  std::vector<std::uint32_t> bitrate_index_;
  std::vector<std::uint32_t> replica_count_;
  std::vector<std::uint32_t> replica_server_;  ///< [video*kInlineReplicas+j]
  std::vector<std::uint32_t> replica_pos_;     ///< parallel: pos in videos_on
  std::vector<std::vector<std::uint32_t>> spill_server_;
  std::vector<std::vector<std::uint32_t>> spill_pos_;

  // Per-server usage and reverse index.
  std::vector<double> storage_bytes_;
  std::vector<double> bandwidth_bps_;
  std::vector<std::vector<std::uint32_t>> server_videos_;
  // Position sets: per server, one block of block_words_ words (ladder size
  // + 1) per 64 positions of server_videos_; bit p % 64 of word k of block
  // p / 64 is set iff the video at position p sits at ladder slot k, and of
  // word pinned_word() iff it is pinned.  Blocks come and go with the list.
  std::size_t block_words_ = 0;
  std::vector<std::vector<std::uint64_t>> position_bits_;

  double rate_sum_mbps_ = 0.0;
  std::size_t replica_sum_ = 0;
  double total_load_bps_ = 0.0;
  double overflow_sum_ = 0.0;
  std::size_t overflow_count_ = 0;
  std::size_t storage_over_count_ = 0;

  mutable std::size_t max_server_ = 0;
  mutable bool max_dirty_ = false;

  std::vector<JournalEntry> journal_;
};

}  // namespace vodrep
