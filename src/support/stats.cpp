#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mfcp {

void RunningStats::add(double x) noexcept {
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

double RunningStats::variance() const noexcept {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double stddev_of(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) {
    rs.add(x);
  }
  return rs.stddev();
}

std::string format_mean_std(double mean, double std, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << mean << " ± " << std;
  return os.str();
}

}  // namespace mfcp
