// Streaming and batch descriptive statistics used by the simulator metrics
// and the experiment harness (means, deviations, confidence intervals,
// quantiles, time-weighted averages).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace vodrep {

/// Numerically stable streaming accumulator (Welford) for count, mean,
/// variance, min and max of a sequence of observations.
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two observations.
  [[nodiscard]] double variance() const;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const;
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const { return min_; }
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const { return max_; }

  /// Half-width of the 95% confidence interval of the mean: the Student-t
  /// critical value at n - 1 degrees of freedom times the standard error.
  /// 0 when fewer than two samples.
  [[nodiscard]] double ci95_halfwidth() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted mean of a piecewise-constant signal, e.g. instantaneous
/// server load between events.  Feed (value, duration) segments.
class TimeWeightedMean {
 public:
  /// Accounts for the signal holding `value` for `duration` time units.
  /// Non-positive durations are ignored.
  void add(double value, double duration);

  [[nodiscard]] double total_time() const { return total_time_; }
  /// Time-average; 0 when no time has been accumulated.
  [[nodiscard]] double mean() const;

 private:
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
};

/// The two-sided 95% critical value of Student's t, its 97.5% quantile, at
/// `degrees_of_freedom` >= 1: tabulated up to 30 degrees of freedom, and
/// Fisher's expansion in 1/df beyond, within 3e-8 there and falling to the
/// normal 1.959964 as df grows.
[[nodiscard]] double student_t975(std::size_t degrees_of_freedom);

/// Linear-interpolation quantile (type 7, the numpy/R default) of `values`.
/// `q` in [0, 1].  The input is copied and sorted.  Throws on empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Arithmetic mean of `values`; throws on empty input.
[[nodiscard]] double mean_of(const std::vector<double>& values);

/// Sample standard deviation of `values` (n-1); 0 when size < 2.
[[nodiscard]] double stddev_of(const std::vector<double>& values);

}  // namespace vodrep
