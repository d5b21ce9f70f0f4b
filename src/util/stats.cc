#include "src/util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/util/error.h"

namespace vodrep {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::ci95_halfwidth() const {
  if (count_ < 2) return 0.0;
  return student_t975(count_ - 1) * stddev() /
         std::sqrt(static_cast<double>(count_));
}

double student_t975(std::size_t degrees_of_freedom) {
  require(degrees_of_freedom >= 1, "student_t975: need >= 1 degree of freedom");
  static constexpr std::array<double, 30> kTable = {
      12.706204736174694, 4.302652729749463,  3.182446305283710,
      2.776445105197794,  2.570581835636316,  2.446911851144971,
      2.364624251592787,  2.306004135204166,  2.262157162798204,
      2.228138851986276,  2.200985160091640,  2.178812829667226,
      2.160368656462794,  2.144786687917803,  2.131449545559774,
      2.119905299221256,  2.109815577833317,  2.100922040241039,
      2.093024054408309,  2.085963447265866,  2.079613844727680,
      2.073873067904027,  2.068657610419048,  2.063898561628027,
      2.059538552753295,  2.055529438642875,  2.051830516480286,
      2.048407141795248,  2.045229642132702,  2.042272456301236};
  if (degrees_of_freedom <= kTable.size()) {
    return kTable[degrees_of_freedom - 1];
  }
  // Fisher's (Cornish-Fisher) expansion of the t quantile around the
  // normal quantile z = 1.959964 in powers of 1/df (Abramowitz & Stegun
  // 26.7.5).
  const double z = 1.959963984540054;
  const double z2 = z * z;
  const double g1 = z * (z2 + 1.0) / 4.0;
  const double g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0;
  const double g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0;
  const double g4 =
      z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) /
      92160.0;
  const double v = 1.0 / static_cast<double>(degrees_of_freedom);
  return z + v * (g1 + v * (g2 + v * (g3 + v * g4)));
}

void TimeWeightedMean::add(double value, double duration) {
  if (duration <= 0.0) return;
  weighted_sum_ += value * duration;
  total_time_ += duration;
}

double TimeWeightedMean::mean() const {
  return total_time_ > 0.0 ? weighted_sum_ / total_time_ : 0.0;
}

double quantile(std::vector<double> values, double q) {
  require(!values.empty(), "quantile: empty input");
  require(q >= 0.0 && q <= 1.0, "quantile: q must be in [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean_of(const std::vector<double>& values) {
  require(!values.empty(), "mean_of: empty input");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev_of(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean_of(values);
  double m2 = 0.0;
  for (double v : values) m2 += (v - m) * (v - m);
  return std::sqrt(m2 / static_cast<double>(values.size() - 1));
}

}  // namespace vodrep
