// Streaming and batch descriptive statistics.
//
// Used by the experiment harnesses (mean/percentile rows), the randomized-
// rounding quality reports (best-of-K), and the statistical tests that
// validate the paper's Lemmas 1–2 and Theorems 2–3.
#pragma once

#include <cstddef>
#include <vector>

namespace cca::common {

/// Welford streaming accumulator: numerically stable mean/variance without
/// retaining samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator). Zero for n < 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of the normal-approximation 95% confidence interval on the
  /// mean: 1.96 * stddev / sqrt(n). Zero for n < 2.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample set via linear interpolation between closest
/// ranks; `p` in [0, 100]. Selects the two closest-rank order statistics
/// (std::nth_element, then the least of the upper partition) in linear
/// time on the by-value copy, instead of sorting it; the result equals the
/// sorted-order interpolation bit for bit.
double percentile(std::vector<double> values, double p);

/// Arithmetic mean of a sample set (0 for an empty set).
double mean_of(const std::vector<double>& values);

/// Gini coefficient of a non-negative sample set — the skewness summary we
/// report for correlation and index-size distributions (1 = maximally
/// skewed, 0 = uniform).
double gini(std::vector<double> values);

}  // namespace cca::common
