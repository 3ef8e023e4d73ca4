// LU factorization with partial pivoting.
//
// Used to solve the KKT sensitivity system (paper Eq. 15): factor once,
// then back-substitute for every column of dX*/dT̂ and dX*/dÂ (multi-RHS).
#pragma once

#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"

namespace mfcp {

/// Compact LU factorization P*A = L*U of a square matrix.
class LuFactorization {
 public:
  /// Factors `a` (n x n). Throws SingularMatrixError if a zero (or
  /// numerically negligible) pivot is encountered.
  explicit LuFactorization(Matrix a);

  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

  /// Solves A x = b for a single right-hand side (n x 1).
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Solves A X = B column-by-column (B is n x k).
  [[nodiscard]] Matrix solve_multi(const Matrix& b) const;

 private:
  Matrix lu_;                     // L (unit diagonal, below) and U (diag+above)
  std::vector<std::size_t> piv_;  // row permutation
};

/// Thrown when a factorization meets a numerically singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t pivot_index);
};

}  // namespace mfcp
