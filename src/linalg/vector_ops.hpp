// Vector-flavoured helpers over Matrix (dot products, softmax,
// log-sum-exp). These are the numeric primitives the smoothed matching
// objective (Eq. 8) and Algorithm 1's softmax projection are built from.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace mfcp {

/// Dot product over flattened elements. Shapes must match element count.
double dot(const Matrix& a, const Matrix& b);

/// Numerically stable log(sum(exp(beta * x))) / beta over a span.
/// This is the paper's smooth-max (Theorem 1): max(x) <= lse <= max(x) +
/// log(n)/beta.
double log_sum_exp(std::span<const double> xs, double beta);

/// Softmax over a span with inverse temperature 1 (stable: shifts by max).
/// Output sums to exactly 1 up to rounding.
void softmax_inplace(std::span<double> xs);

/// Softmax with inverse temperature `beta`.
void softmax_inplace(std::span<double> xs, double beta);

/// Column-wise softmax of a matrix: every column becomes a distribution
/// over rows. This is exactly line 4 of Algorithm 1 (project each task's
/// assignment weights onto the simplex over clusters).
void softmax_columns_inplace(Matrix& m);

/// axpy: y += alpha * x (flattened; element counts must match).
void axpy(double alpha, const Matrix& x, Matrix& y);

}  // namespace mfcp
