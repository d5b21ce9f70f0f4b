#include "src/core/objective.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

double mean_load(const std::vector<double>& loads) {
  require(!loads.empty(), "imbalance: empty load vector");
  double sum = 0.0;
  for (double l : loads) {
    require(l >= 0.0, "imbalance: negative load");
    sum += l;
  }
  return sum / static_cast<double>(loads.size());
}

}  // namespace

double imbalance_max_relative(const std::vector<double>& loads) {
  const double mean = mean_load(loads);
  if (mean == 0.0) return 0.0;
  const double max = *std::max_element(loads.begin(), loads.end());
  // Clamp: with equal loads the summed mean can exceed the max by a few
  // ulps, which would yield a (meaningless) negative imbalance.
  return std::max(0.0, (max - mean) / mean);
}

double imbalance_cv(const std::vector<double>& loads) {
  const double mean = mean_load(loads);
  if (mean == 0.0) return 0.0;
  double m2 = 0.0;
  for (double l : loads) m2 += (l - mean) * (l - mean);
  return std::sqrt(m2 / static_cast<double>(loads.size())) / mean;
}

double load_spread(const std::vector<double>& loads) {
  require(!loads.empty(), "load_spread: empty load vector");
  const auto [min_it, max_it] = std::minmax_element(loads.begin(), loads.end());
  return *max_it - *min_it;
}

double imbalance(const std::vector<double>& loads,
                 ImbalanceDefinition definition) {
  switch (definition) {
    case ImbalanceDefinition::kMaxRelative:
      return imbalance_max_relative(loads);
    case ImbalanceDefinition::kCoefficientOfVariation:
      return imbalance_cv(loads);
  }
  detail::throw_invalid("imbalance: unknown definition");
}

double objective_value(const std::vector<double>& bitrates_bps,
                       const std::vector<std::size_t>& replicas,
                       const std::vector<double>& loads,
                       std::size_t num_servers,
                       const ObjectiveWeights& weights) {
  require(!bitrates_bps.empty(), "objective: empty bit-rate vector");
  require(bitrates_bps.size() == replicas.size(),
          "objective: bit-rate/replica size mismatch");
  require(num_servers >= 1, "objective: need at least one server");
  const auto m = static_cast<double>(bitrates_bps.size());
  double rate_sum = 0.0;
  double replica_sum = 0.0;
  for (std::size_t i = 0; i < bitrates_bps.size(); ++i) {
    require(bitrates_bps[i] > 0.0, "objective: bit rates must be positive");
    require(replicas[i] >= 1, "objective: r_i must be >= 1");
    rate_sum += units::to_mbps(bitrates_bps[i]);
    replica_sum += static_cast<double>(replicas[i]);
  }
  const double mean_rate_mbps = rate_sum / m;
  const double mean_degree_normalized =
      replica_sum / m / static_cast<double>(num_servers);
  const double l = imbalance(loads, weights.imbalance_definition);
  return mean_rate_mbps + weights.alpha * mean_degree_normalized -
         weights.beta * l;
}

}  // namespace vodrep
