// Central finite-difference Jacobians of a matching solver's output with
// respect to the metric matrices. Reference implementation: slow but
// assumption-free, used to validate both the KKT implicit differentiation
// and the zeroth-order estimator in tests, and available for diagnostics.
#pragma once

#include <functional>

#include "diff/zeroth_order.hpp"

namespace mfcp::diff {

/// d vec(X*) / d vec(T): (MN x MN), central differences with step h.
/// Row r = flattened X entry, column s = flattened T entry.
Matrix fd_jacobian_wrt_times(const MatchingSolver& solver, const Matrix& times,
                             const Matrix& reliability, double h = 1e-5);

/// d vec(X*) / d vec(A).
Matrix fd_jacobian_wrt_reliability(const MatchingSolver& solver,
                                   const Matrix& times,
                                   const Matrix& reliability, double h = 1e-5);

/// Central-difference gradient of a scalar function of a matrix.
Matrix fd_gradient(const std::function<double(const Matrix&)>& fn,
                   const Matrix& at, double h = 1e-6);

}  // namespace mfcp::diff
