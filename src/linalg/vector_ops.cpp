#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mfcp {

double dot(const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.size() == b.size(), "dot: element count mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double log_sum_exp(std::span<const double> xs, double beta) {
  MFCP_CHECK(!xs.empty(), "log_sum_exp of empty span");
  MFCP_CHECK(beta > 0.0, "log_sum_exp requires beta > 0");
  const double m = *std::max_element(xs.begin(), xs.end());
  double acc = 0.0;
  for (double x : xs) {
    acc += std::exp(beta * (x - m));
  }
  return m + std::log(acc) / beta;
}

void softmax_inplace(std::span<double> xs) { softmax_inplace(xs, 1.0); }

void softmax_inplace(std::span<double> xs, double beta) {
  MFCP_CHECK(!xs.empty(), "softmax of empty span");
  const double m = *std::max_element(xs.begin(), xs.end());
  double total = 0.0;
  for (double& x : xs) {
    x = std::exp(beta * (x - m));
    total += x;
  }
  for (double& x : xs) {
    x /= total;
  }
}

void softmax_columns_inplace(Matrix& m) {
  MFCP_CHECK(m.rows() > 0 && m.cols() > 0, "softmax of empty matrix");
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double mx = m(0, c);
    for (std::size_t r = 1; r < m.rows(); ++r) {
      mx = std::max(mx, m(r, c));
    }
    double total = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      m(r, c) = std::exp(m(r, c) - mx);
      total += m(r, c);
    }
    for (std::size_t r = 0; r < m.rows(); ++r) {
      m(r, c) /= total;
    }
  }
}

void axpy(double alpha, const Matrix& x, Matrix& y) {
  MFCP_CHECK(x.size() == y.size(), "axpy: element count mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

}  // namespace mfcp
