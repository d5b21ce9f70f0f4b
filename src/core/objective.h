// Load-imbalance metrics and the combined optimization objective (paper
// Section 3.2, Eqs. 1–3).
#pragma once

#include <cstddef>
#include <vector>

namespace vodrep {

/// Eq. 2: L = (max_j l_j - l_bar) / l_bar, the relative excess of the most
/// loaded server over the mean.  Returns 0 when all loads are zero (an idle
/// cluster is perfectly balanced).  Throws on empty input or negative loads.
[[nodiscard]] double imbalance_max_relative(const std::vector<double>& loads);

/// Eq. 3: L = sqrt((1/N) * sum_j (l_j - l_bar)^2) / l_bar, the coefficient
/// of variation of the loads (population standard deviation over mean).
/// Returns 0 when all loads are zero.
[[nodiscard]] double imbalance_cv(const std::vector<double>& loads);

/// Absolute spread max_j l_j - min_j l_j.  This is the quantity the
/// Theorem 4.2 placement bound controls.
[[nodiscard]] double load_spread(const std::vector<double>& loads);

/// Which imbalance definition an objective evaluation should use.
enum class ImbalanceDefinition { kMaxRelative /*Eq. 2*/, kCoefficientOfVariation /*Eq. 3*/ };

[[nodiscard]] double imbalance(const std::vector<double>& loads,
                               ImbalanceDefinition definition);

/// Weights of the combined objective of Eq. 1:
///   O = mean encoding bit rate [Mb/s]
///     + alpha * mean replication degree (replicas normalized by N)
///     - beta  * load-imbalance degree L.
/// The paper leaves the relative weighting factors alpha, beta free; the
/// normalizations used here (bit rate in Mb/s, degree relative to full
/// replication) put all three terms on comparable O(1) scales and are
/// documented in EXPERIMENTS.md.
struct ObjectiveWeights {
  double alpha = 1.0;
  double beta = 1.0;
  ImbalanceDefinition imbalance_definition = ImbalanceDefinition::kMaxRelative;
};

/// Evaluates Eq. 1.  `bitrates_bps` holds one encoding bit rate per video,
/// `replicas` one count per video, `loads` one expected load per server,
/// `num_servers` normalizes the replication term.
[[nodiscard]] double objective_value(const std::vector<double>& bitrates_bps,
                                     const std::vector<std::size_t>& replicas,
                                     const std::vector<double>& loads,
                                     std::size_t num_servers,
                                     const ObjectiveWeights& weights);

}  // namespace vodrep
