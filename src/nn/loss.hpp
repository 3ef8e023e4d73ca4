// Regression losses for the two-stage (TSM) baseline and prediction
// diagnostics.
#pragma once

#include "autograd/ops.hpp"

namespace mfcp::nn {

using autograd::Variable;

/// Mean squared error (paper Eq. 1). Returns a 1x1 Variable.
Variable mse(const Variable& pred, const Matrix& target);

/// Non-differentiable MSE for evaluation.
double mse_value(const Matrix& pred, const Matrix& target);

}  // namespace mfcp::nn
