#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace cca::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double percentile(std::vector<double> values, double p) {
  CCA_CHECK_MSG(!values.empty(), "percentile of empty sample set");
  CCA_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p=" << p);
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // The order statistics of ranks lo and lo + 1 (clamped), by selection:
  // after nth_element, everything past lo is >= values[lo], so the rank
  // lo + 1 value is the least of that upper partition.
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double low = *nth;
  const double high =
      lo + 1 < values.size() ? *std::min_element(nth + 1, values.end()) : low;
  return low * (1.0 - frac) + high * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

double gini(std::vector<double> values) {
  if (values.size() < 2) return 0.0;
  std::sort(values.begin(), values.end());
  double cum = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    CCA_CHECK_MSG(values[i] >= 0.0, "gini requires non-negative values");
    cum += values[i];
    weighted += values[i] * static_cast<double>(i + 1);
  }
  if (cum == 0.0) return 0.0;
  const auto n = static_cast<double>(values.size());
  return (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
}

}  // namespace cca::common
