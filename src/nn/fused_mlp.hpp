// The predictor MLPs' forward pass, seeded backward and MSE step.
//
// Covers every Mlp: Linear+ReLU hidden layers and a Linear head with a
// softplus, sigmoid or identity output, times an optional output scale
// (the execution-time head's `time_scale`). These kernels are the
// network's only code path: fused_forward predicts, fused_backward runs
// the decision-focused trainers' Eq. 7 (the caller's dL/dt̂ or dL/dâ
// through the network), and fused_mse_step trains on MSE through that
// same backward. The autograd tape (autograd/mlp_tape.hpp) is the oracle
// they are tested against.
//
// Bit-identity contract: for every output element the kernels perform the
// tape's floating-point operations in the tape's order. Products
// accumulate in k order from +0.0 and the bias is added after the sum
// (as `matmul` + `add_row_broadcast`); the backward pass sums like
// `matmul_tn` (weight gradients, over the batch) and `matmul_nt` (hidden
// gradients, over the layer's outputs), and adds each parameter's
// gradient into its slot as the tape's `accumulate` does. Vectorization
// runs only across independent output lanes, never across a sum. A
// hidden layer's bias and ReLU, and the ReLU mask on a hidden gradient,
// run in the product's epilogue, on each finished sum while it is still
// in a register. They do not branch on data:
//   - forward, z = sum + bias, then pre = z and post = (0.0 < z) ? z : 0.0,
//     which is relu's std::max(0.0, z): +0.0 for z = +0.0, -0.0 or NaN;
//   - backward, g = pre <= 0.0 ? 0.0 : sum, which stores +0.0 exactly
//     where relu's `if (x <= 0.0) g = 0.0` does (pre = +0.0 or -0.0) and
//     keeps the sum for a NaN pre-activation (NaN <= 0.0 is false).
// A bias gradient is the product of a row of ones and g; 1.0 * g is
// exact, so it sums the rows in order from +0.0 as add_row_broadcast
// does. The head keeps its own bias pass and libm's softplus/sigmoid. So
// the forward values, the loss and every parameter gradient equal the
// tape's bit for bit, and the weights after an optimizer step do too.
//
// All calls on one thread share one scratch (activations, their
// gradients and the transposed weights). It grows to the largest batch
// and width seen and is then reused, so steady-state calls allocate
// nothing. Because it is shared, fused_backward recomputes the forward
// pass it differentiates.
#pragma once

#include <span>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace mfcp::nn {

/// The vector widths of the kernels' matrix product: two-lane SSE2
/// blocks, or eight-lane AVX-512F blocks (32 and 8 lanes, then four- and
/// two-lane blocks and a scalar column for the tails). Every call runs
/// the widest tier the host supports, decided once per process.
enum class ProductTier { kSse2, kAvx512f };

/// True when this host can run `tier`; kSse2 runs everywhere.
[[nodiscard]] bool product_tier_supported(ProductTier tier) noexcept;

/// c (m x n, row-major) = A b at `tier`, where A(i, k) =
/// a[i * a_row + k * a_col] and b is (depth x n, row-major). Every entry
/// sums its `depth` products in k order from +0.0, as `matmul`,
/// `matmul_tn` and `matmul_nt` do, so every tier gives the same bits.
/// Throws ContractError for a tier the host does not support.
void product(ProductTier tier, std::size_t m, std::size_t n,
             std::size_t depth, const double* a, std::size_t a_row,
             std::size_t a_col, const double* b, double* c);

/// `product`, added into c: c(i, j) = c(i, j) + the sum (the backward
/// pass's weight and bias gradients, accumulated into their slots).
void product_add(ProductTier tier, std::size_t m, std::size_t n,
                 std::size_t depth, const double* a, std::size_t a_row,
                 std::size_t a_col, const double* b, double* c);

/// `product`, then for each entry z = c(i, j) + bias[j]: pre(i, j) = z and
/// post(i, j) = (0.0 < z) ? z : 0.0 (a hidden layer's forward pass).
void product_bias_relu(ProductTier tier, std::size_t m, std::size_t n,
                       std::size_t depth, const double* a, std::size_t a_row,
                       std::size_t a_col, const double* b, const double* bias,
                       double* pre, double* post);

/// `product`, then c(i, j) = mask(i, j) <= 0.0 ? 0.0 : c(i, j), where mask
/// is (m x n, row-major) (ReLU's mask on a hidden gradient).
void product_relu_mask(ProductTier tier, std::size_t m, std::size_t n,
                       std::size_t depth, const double* a, std::size_t a_row,
                       std::size_t a_col, const double* b, const double* mask,
                       double* c);

/// Writes scale * mlp(x) to `out`, row-major (x.rows() x output_dim).
void fused_forward(const Mlp& mlp, const Matrix& x, double scale,
                   std::span<double> out);

/// The backward pass of y = scale * mlp(x) for the caller's dL/dy `dy`
/// (x.rows() x output_dim, row-major): adds every parameter's gradient
/// into its slot, as a seeded tape backward (y.backward(dy)) does, so
/// calls accumulate until mlp.zero_grad(). It recomputes the forward
/// pass first.
void fused_backward(Mlp& mlp, const Matrix& x, std::span<const double> dy,
                    double scale);

/// One MSE step: forward, the loss and its dL/dy, mlp.zero_grad(), the
/// backward pass above, then `opt.step()`. The gradients left in the
/// slots are those of MSE(scale * mlp(x), target) alone, so `opt` must
/// manage exactly mlp.parameters(). Returns the loss before the step.
double fused_mse_step(Mlp& mlp, Adam& opt, const Matrix& x,
                      const Matrix& target, double scale);

}  // namespace mfcp::nn
