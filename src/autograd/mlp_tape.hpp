// The predictor network on the autograd tape.
//
// The library runs its MLPs through nn/fused_mlp. This is the same
// network as a tape graph, with the same floating-point operations in
// the same order, kept for two uses: it is the oracle the fused kernels
// are tested against bit for bit, and tape_mse_step is the engine's
// retrain burst (OnlineTrainer::retrain), the tape's one caller in the
// library. The burst stays here, at the tape's speed, until the
// benchmark's replay workload can measure a shorter burst; then it
// switches to nn::fused_mse_step, which has the same signature and bits.
#pragma once

#include <span>

#include "autograd/variable.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace mfcp::autograd {

/// The tape graph of scale * mlp(x) over `params`, the network's weight
/// and bias leaves in Mlp::parameters() order: per layer
/// add_row_broadcast(matmul(h, transpose(W)), b), relu after each hidden
/// layer, then the head's activation and, unless scale is 1.0, a scale
/// node.
Variable mlp_graph(const nn::MlpConfig& config,
                   std::span<const Variable> params, const Matrix& x,
                   double scale);

/// nn::fused_mse_step on the tape, with its signature and contract: the
/// network's matrices become the graph's leaves, MSE(scale * mlp(x),
/// target) runs backward, the leaves' gradients overwrite the network's
/// gradient slots, and `opt` steps. Returns the loss before the step.
double tape_mse_step(nn::Mlp& mlp, nn::Adam& opt, const Matrix& x,
                     const Matrix& target, double scale);

}  // namespace mfcp::autograd
