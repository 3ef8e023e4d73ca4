// Differentiable operations over Variables.
//
// Every op computes its value eagerly and registers a backward closure on
// the result node. Gradient correctness for each op is verified against
// central finite differences in tests/autograd_test.cpp.
#pragma once

#include "autograd/variable.hpp"

namespace mfcp::autograd {

/// Element-wise sum; shapes must match.
Variable add(const Variable& a, const Variable& b);

/// Element-wise difference.
Variable sub(const Variable& a, const Variable& b);

/// Element-wise (Hadamard) product.
Variable mul(const Variable& a, const Variable& b);

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

/// Hyperbolic tangent, element-wise.
Variable tanh_op(const Variable& a);

/// Logistic sigmoid, element-wise (used by the reliability head to keep
/// â in (0, 1)).
Variable sigmoid(const Variable& a);

/// softplus(x) = log(1 + e^x), element-wise (used by the execution-time
/// head to keep t̂ positive).
Variable softplus(const Variable& a);

/// Numerically stable log(sum(exp(beta * a))) / beta over all elements
/// -> 1x1. The differentiable smooth-max of Eq. 8 for callers that want
/// the smoothed objective inside an autograd graph.
Variable logsumexp(const Variable& a, double beta);

/// Sum of all elements -> 1x1.
Variable sum_all(const Variable& a);

/// Mean of all elements -> 1x1.
Variable mean_all(const Variable& a);

/// Mean squared error against a constant target -> 1x1 (paper Eq. 1).
Variable mse_loss(const Variable& pred, const Matrix& target);

/// The scalar logistic and softplus the ops above apply per element (and
/// softplus's derivative is the logistic). The tape-free MLP kernels
/// (nn/fused_mlp) call the same definitions.
double sigmoid_scalar(double x) noexcept;
double softplus_scalar(double x) noexcept;

}  // namespace mfcp::autograd
