// Householder QR factorization and least-squares solving.
//
// Used by the closed-form ridge-regression predictors (mfcp/linear_model):
// the normal equations of small feature matrices are solved stably via QR
// rather than Cholesky of X^T X.
#pragma once

#include "linalg/matrix.hpp"

namespace mfcp {

/// Householder QR of an m x n matrix with m >= n: A = Q R with Q m x n
/// (thin, orthonormal columns) and R n x n upper triangular.
class QrFactorization {
 public:
  explicit QrFactorization(Matrix a);

  [[nodiscard]] std::size_t rows() const noexcept { return m_; }
  [[nodiscard]] std::size_t cols() const noexcept { return n_; }

  /// Least-squares solution argmin_x ||A x - b||_2 for b of length m.
  [[nodiscard]] Matrix solve_least_squares(const Matrix& b) const;

  /// True if R has a numerically negligible diagonal entry (rank
  /// deficiency); solve_least_squares would divide by ~0.
  [[nodiscard]] bool rank_deficient(double tol = 1e-12) const;

 private:
  /// Applies Q^T to a length-m vector in place.
  void apply_qt(Matrix& v) const;

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  Matrix qr_;   // Householder vectors below the diagonal, R on/above
  Matrix tau_;  // Householder coefficients (n x 1)
};

/// Ridge regression: solves argmin_w ||X w - y||^2 + lambda ||w||^2 via
/// the augmented least-squares system [X; sqrt(lambda) I] w = [y; 0].
/// X is (samples x features), y is (samples x 1); returns (features x 1).
Matrix ridge_regression(const Matrix& x, const Matrix& y, double lambda);

}  // namespace mfcp
