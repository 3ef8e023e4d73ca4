// Differentiable operations over Variables.
//
// Every op computes its value eagerly and registers a backward closure on
// the result node. Gradient correctness for each op is verified against
// central finite differences in tests/autograd_test.cpp.
#pragma once

#include "autograd/variable.hpp"

namespace mfcp::autograd {

/// Scalar multiple.
Variable scale(const Variable& a, double s);

/// Matrix product a (m x k) times b (k x n).
Variable matmul(const Variable& a, const Variable& b);

/// Transpose.
Variable transpose(const Variable& a);

/// Broadcast add of a row vector: a (B x n) + bias (1 x n), applied to
/// every row. This is the Linear-layer bias.
Variable add_row_broadcast(const Variable& a, const Variable& bias);

/// Rectified linear unit, element-wise.
Variable relu(const Variable& a);

/// Logistic sigmoid, element-wise (used by the reliability head to keep
/// â in (0, 1)), with nn::sigmoid_scalar.
Variable sigmoid(const Variable& a);

/// softplus(x) = log(1 + e^x), element-wise (used by the execution-time
/// head to keep t̂ positive), with nn::softplus_scalar.
Variable softplus(const Variable& a);

/// Mean squared error against a constant target -> 1x1 (paper Eq. 1).
Variable mse_loss(const Variable& pred, const Matrix& target);

}  // namespace mfcp::autograd
