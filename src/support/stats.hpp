// Streaming and batch statistics used when reporting experiment results as
// mean ± std over replications (the paper reports every table cell this way).
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace mfcp {

/// Welford online accumulator: numerically stable mean/variance without
/// storing samples.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merge another accumulator (parallel reduction support).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Sample variance (n-1 denominator). Zero for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample standard deviation (n-1). Zero for fewer than two samples.
double stddev_of(std::span<const double> xs);

/// Formats "m ± s" with the given precision, e.g. "0.894 ± 0.035".
std::string format_mean_std(double mean, double std, int precision = 3);

}  // namespace mfcp
