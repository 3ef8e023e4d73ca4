#include "linalg/lu.hpp"

#include <cmath>
#include <string>

#include "support/check.hpp"

namespace mfcp {

SingularMatrixError::SingularMatrixError(std::size_t pivot_index)
    : std::runtime_error("matrix is numerically singular at pivot " +
                         std::to_string(pivot_index)) {}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  MFCP_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    piv_[i] = i;
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |entry| in column k at/below row k.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-300) {
      throw SingularMatrixError(k);
    }
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(p, c));
      }
      std::swap(piv_[k], piv_[p]);
    }
    const double pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) / pivot;
      lu_(i, k) = m;
      if (m != 0.0) {
        for (std::size_t c = k + 1; c < n; ++c) {
          lu_(i, c) -= m * lu_(k, c);
        }
      }
    }
  }
}

Matrix LuFactorization::solve(const Matrix& b) const {
  const std::size_t n = dim();
  MFCP_CHECK(b.size() == n, "rhs length must match matrix dimension");
  Matrix x(n, 1);
  // Apply permutation, then forward substitution with unit-lower L.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[piv_[i]];
    for (std::size_t k = 0; k < i; ++k) {
      acc -= lu_(i, k) * x[k];
    }
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      acc -= lu_(ii, k) * x[k];
    }
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

Matrix LuFactorization::solve_multi(const Matrix& b) const {
  const std::size_t n = dim();
  MFCP_CHECK(b.rows() == n, "rhs row count must match matrix dimension");
  Matrix x(n, b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    x.set_col(c, solve(b.col_vector(c)));
  }
  return x;
}

}  // namespace mfcp
