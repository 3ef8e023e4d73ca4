#include "linalg/qr.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mfcp {

QrFactorization::QrFactorization(Matrix a)
    : m_(a.rows()), n_(a.cols()), qr_(std::move(a)), tau_(n_, 1, 0.0) {
  MFCP_CHECK(m_ >= n_ && n_ > 0, "QR requires m >= n >= 1");

  for (std::size_t k = 0; k < n_; ++k) {
    // Householder vector for column k: reflect x to ||x|| e_1.
    double norm2 = 0.0;
    for (std::size_t i = k; i < m_; ++i) {
      norm2 += qr_(i, k) * qr_(i, k);
    }
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha e1, normalized so v[0] = 1.
    const double v0 = qr_(k, k) - alpha;
    for (std::size_t i = k + 1; i < m_; ++i) {
      qr_(i, k) /= v0;
    }
    tau_[k] = -v0 / alpha;  // beta = 2 / (v^T v) with v[0] = 1 scaling
    qr_(k, k) = alpha;      // R diagonal

    // Apply reflector to the remaining columns.
    for (std::size_t j = k + 1; j < n_; ++j) {
      double dot = qr_(k, j);
      for (std::size_t i = k + 1; i < m_; ++i) {
        dot += qr_(i, k) * qr_(i, j);
      }
      dot *= tau_[k];
      qr_(k, j) -= dot;
      for (std::size_t i = k + 1; i < m_; ++i) {
        qr_(i, j) -= dot * qr_(i, k);
      }
    }
  }
}

void QrFactorization::apply_qt(Matrix& v) const {
  MFCP_CHECK(v.size() == m_, "vector length must match row count");
  for (std::size_t k = 0; k < n_; ++k) {
    if (tau_[k] == 0.0) {
      continue;
    }
    double dot = v[k];
    for (std::size_t i = k + 1; i < m_; ++i) {
      dot += qr_(i, k) * v[i];
    }
    dot *= tau_[k];
    v[k] -= dot;
    for (std::size_t i = k + 1; i < m_; ++i) {
      v[i] -= dot * qr_(i, k);
    }
  }
}

bool QrFactorization::rank_deficient(double tol) const {
  for (std::size_t i = 0; i < n_; ++i) {
    if (std::abs(qr_(i, i)) < tol) {
      return true;
    }
  }
  return false;
}

Matrix QrFactorization::solve_least_squares(const Matrix& b) const {
  MFCP_CHECK(b.size() == m_, "rhs length must match row count");
  MFCP_CHECK(!rank_deficient(), "rank-deficient least-squares system");
  Matrix y = b.reshaped(m_, 1);
  apply_qt(y);
  // Back-substitute R x = (Q^T b)[0:n].
  Matrix x(n_, 1);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) {
      acc -= qr_(ii, j) * x[j];
    }
    x[ii] = acc / qr_(ii, ii);
  }
  return x;
}

Matrix ridge_regression(const Matrix& x, const Matrix& y, double lambda) {
  MFCP_CHECK(x.rows() == y.size(), "sample count mismatch");
  MFCP_CHECK(lambda >= 0.0, "ridge penalty must be non-negative");
  const std::size_t s = x.rows();
  const std::size_t f = x.cols();
  // Augmented system [X; sqrt(lambda) I] w = [y; 0].
  const double root = std::sqrt(lambda);
  Matrix aug(s + f, f, 0.0);
  Matrix rhs(s + f, 1, 0.0);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < f; ++j) {
      aug(i, j) = x(i, j);
    }
    rhs[i] = y[i];
  }
  for (std::size_t j = 0; j < f; ++j) {
    aug(s + j, j) = root;
  }
  return QrFactorization(std::move(aug)).solve_least_squares(rhs);
}

}  // namespace mfcp
