// Fuzz target: IncrementalState move sequences against the from-scratch
// evaluator and the audit layer.
//
// The SA solver trusts IncrementalState's O(r)-per-move running sums to
// equal a from-scratch evaluation of the Eq. 1 objective.  This target
// decodes arbitrary bytes into a structured sequence of primitive moves and
// transactions — set_bitrate / add_replica / drop_replica / checkpoint /
// rollback / commit — against a fixed small instance whose
// N=6 servers straddle the kInlineReplicas=4 spill boundary, then
// periodically cross-checks:
//
//   * state.objective() against solution_objective(problem, to_solution())
//     at 1e-9 relative tolerance;
//   * LayoutAuditor::audit_state, which re-derives every cached sum from
//     first principles (storage/bandwidth overflow is tolerated: the SA
//     bandwidth constraint is soft, and random move streams overfill
//     servers by design — every *other* violation kind is a finding).
//
// Any divergence is a journaling/bookkeeping bug of exactly the kind the
// checkpoint/rollback/spill machinery could hide from the unit tests'
// hand-picked sequences.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "fuzz/fuzz_support.h"
#include "src/audit/audit.h"
#include "src/core/incremental_state.h"
#include "src/core/scalable.h"

namespace {

constexpr std::size_t kNumVideos = 8;
constexpr std::size_t kNumServers = 6;  // > kInlineReplicas: spill reachable
constexpr double kRelTolerance = 1e-9;

const vodrep::ScalableProblem& fixed_problem() {
  static const vodrep::ScalableProblem problem = [] {
    vodrep::ScalableProblem p;
    p.videos.duration_sec = 5400.0;
    // Normalized, non-increasing popularity (a fixed Zipf-ish profile).
    p.videos.popularity = {0.28, 0.19, 0.14, 0.11, 0.09, 0.08, 0.06, 0.05};
    p.cluster.num_servers = kNumServers;
    p.cluster.storage_bytes_per_server = 8.0e9;   // ~3 top-rate replicas
    p.cluster.bandwidth_bps_per_server = 1.8e9;
    p.ladder.rates_bps = {1.0e6, 2.0e6, 4.0e6};
    p.expected_peak_requests = 200.0;
    p.validate();
    return p;
  }();
  return problem;
}

void cross_check(const vodrep::IncrementalState& state) {
  const double incremental = state.objective();
  const double scratch = vodrep::solution_objective(fixed_problem(),
                                                    state.to_solution());
  const double scale = std::max(1.0, std::abs(scratch));
  if (!(std::abs(incremental - scratch) <= kRelTolerance * scale)) {
    VODREP_FUZZ_FAIL(
        "incremental objective %.17g != from-scratch %.17g (rel tol %g)",
        incremental, scratch, kRelTolerance);
  }
  const vodrep::AuditReport report = vodrep::LayoutAuditor::audit_state(state);
  for (const vodrep::Violation& violation : report.violations) {
    if (violation.kind != vodrep::ViolationKind::kStorageOverflow &&
        violation.kind != vodrep::ViolationKind::kBandwidthOverflow) {
      VODREP_FUZZ_FAIL("audit_state: %s", violation.to_string().c_str());
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const vodrep::ScalableProblem& problem = fixed_problem();
  vodrep::IncrementalState state(problem,
                                 vodrep::lowest_rate_round_robin(problem));
  // Marks into the journal that are still valid targets for rollback.
  std::vector<vodrep::IncrementalState::Checkpoint> marks;

  std::size_t ops = 0;
  std::size_t i = 0;
  while (i + 3 <= size) {
    const std::uint8_t op = data[i];
    const std::uint8_t a = data[i + 1];
    const std::uint8_t b = data[i + 2];
    i += 3;
    const std::size_t video = a % kNumVideos;
    switch (op % 6) {
      case 0:
        state.set_bitrate(video, b % problem.ladder.size());
        break;
      case 1: {  // add a replica on the first non-hosting probe hit
        for (std::size_t k = 0; k < kNumServers; ++k) {
          const std::size_t server = (b + k) % kNumServers;
          if (!state.is_hosted(video, server)) {
            state.add_replica(video, server);
            break;
          }
        }
        break;
      }
      case 2: {  // drop a hosted replica, never the last one
        if (state.replica_count(video) > 1) {
          const auto replicas = state.replicas_of(video);
          state.drop_replica(video, replicas[b % replicas.size()]);
        }
        break;
      }
      case 3:
        marks.push_back(state.checkpoint());
        break;
      case 4:
        if (!marks.empty()) {
          const auto mark = marks.back();
          marks.pop_back();
          state.rollback(mark);
        }
        break;
      case 5:
        state.commit();
        marks.clear();
        break;
    }
    if (++ops % 8 == 0) cross_check(state);
  }
  cross_check(state);
  return 0;
}
