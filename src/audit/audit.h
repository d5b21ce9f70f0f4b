// Constraint-audit layer: the paper's Eqs. 1–7 as one machine-checkable
// contract.
//
// Every solver in this repository ultimately promises the same things:
//   Eq. 4 — per-server storage within capacity;
//   Eq. 5 — per-server expected outgoing bandwidth within the link budget;
//   Eq. 6 — the replicas of one video live on distinct, in-range servers;
//   Eq. 7 — every video has between 1 and N replicas;
// and the incremental SA state additionally promises that its journaled
// running sums still equal a from-scratch evaluation of the Eq. 1 objective
// and the Eq. 2/3 imbalance.  `LayoutAuditor` checks all of it and returns a
// structured `AuditReport` (violation kind + video/server ids + margin)
// instead of a bare throw, so tests can assert on the exact failure, the
// `vodrep_audit` CLI can print or JSON-emit it, and solvers can end their
// runs under the same audit (see VODREP_CONTRACTS_ENABLED in util/check.h).
//
// The auditor deliberately re-derives every quantity from the raw layout
// arrays and problem fields — it never calls the usage/objective helpers it is
// auditing — so a bug in the incremental bookkeeping (or in those helpers)
// cannot hide itself.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "src/core/incremental_state.h"
#include "src/core/layout.h"
#include "src/core/replication.h"
#include "src/core/scalable.h"

namespace vodrep {

enum class ViolationKind {
  kPlanMismatch,          ///< layout does not realize the stated plan
  kNoReplica,             ///< r_i = 0 (Eq. 7 lower bound)
  kTooManyReplicas,       ///< r_i > N (Eq. 7 upper bound)
  kDuplicateServer,       ///< one video hosted twice on a server (Eq. 6)
  kServerOutOfRange,      ///< server id >= N (Eq. 6)
  kLadderIndexOutOfRange, ///< bitrate index outside the ladder
  kStorageOverflow,       ///< per-server storage above capacity (Eq. 4)
  kBandwidthOverflow,     ///< per-server load above the link budget (Eq. 5)
  kCachedStorageDrift,    ///< IncrementalState storage sum != from-scratch
  kCachedBandwidthDrift,  ///< IncrementalState load sum != from-scratch
  kCachedObjectiveDrift,  ///< cached Eq. 1 objective != from-scratch
  kCachedOverflowDrift,   ///< cached soft-overflow term != from-scratch
  kCachedMaxLoadDrift,    ///< cached Eq. 2 max term != from-scratch
};

/// Stable snake_case name (used in reports and the CLI's JSON output).
[[nodiscard]] const char* violation_kind_name(ViolationKind kind);

/// One broken constraint, localized to the video and/or server involved.
struct Violation {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  ViolationKind kind;
  std::size_t video = kNone;   ///< kNone when the check is per-server/global
  std::size_t server = kNone;  ///< kNone when the check is per-video/global
  double actual = 0.0;         ///< measured value
  double limit = 0.0;          ///< bound it had to satisfy

  /// How far past the bound the measurement is (units of the check).
  [[nodiscard]] double margin() const { return actual - limit; }
  [[nodiscard]] std::string to_string() const;
};

/// The outcome of one audit: every violation found, never just the first.
struct AuditReport {
  std::vector<Violation> violations;
  std::size_t checks_performed = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] bool has(ViolationKind kind) const;
  [[nodiscard]] std::size_t count(ViolationKind kind) const;
  /// True when every violation is of `kind` (or there are none) — used by
  /// solvers whose bandwidth constraint is soft (SA, greedy) to tolerate
  /// Eq. 5 overflow while still rejecting everything else.
  [[nodiscard]] bool ok_ignoring(ViolationKind kind) const;
  /// Human-readable one-line-per-violation summary ("all checks passed"
  /// when ok()).
  [[nodiscard]] std::string summary() const;
  /// Machine-readable form: {"ok": ..., "checks": ..., "violations": [...]}.
  void write_json(std::ostream& os) const;
};

class LayoutAuditor {
 public:
  /// Cluster bounds for fixed-rate layout audits.  Bandwidth (Eq. 5) is
  /// checked only when a finite link budget and a positive load scaling
  /// (expected_peak_requests * bitrate_bps) are both given, since the
  /// exchange format carries neither.
  struct Limits {
    std::size_t num_servers = 0;
    std::size_t capacity_per_server = 0;  ///< replica slots (Eq. 4)
    double bandwidth_bps_per_server =
        std::numeric_limits<double>::infinity();  ///< B_j (Eq. 5)
    /// Fixed-rate load model: l_j [bps] = share_j * lambda*T * b.
    double expected_peak_requests = 0.0;  ///< lambda * T
    double bitrate_bps = 0.0;             ///< common stream bit rate b
  };

  explicit LayoutAuditor(Limits limits);

  /// Eqs. 4–7 on a fixed-rate layout.  `plan` (optional) adds the
  /// plan-realization check; `popularity` (optional, normalized, one entry
  /// per video) enables the Eq. 5 expected-load check.
  [[nodiscard]] AuditReport audit(
      const Layout& layout, const ReplicationPlan* plan = nullptr,
      const std::vector<double>* popularity = nullptr) const;

  /// Eqs. 4–7 on a scalable-rate solution, with storage and bandwidth
  /// re-derived from first principles (never via compute_usage).
  [[nodiscard]] static AuditReport audit_solution(
      const ScalableProblem& problem, const ScalableSolution& solution);

  /// audit_solution on the live solution, plus the Eq. 1/2/3 cross-check of
  /// every cached running sum in `state` against a from-scratch
  /// recomputation (relative tolerance `drift_tolerance`).
  [[nodiscard]] static AuditReport audit_state(const IncrementalState& state,
                                               double drift_tolerance = 1e-7);

 private:
  Limits limits_;
};

}  // namespace vodrep
