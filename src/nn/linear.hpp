// Fully connected layer y = x W^T + b: its parameters and their
// gradients, as plain matrices. The fused kernels (nn/fused_mlp) read
// the parameters and add into the gradients; Adam steps the parameters.
#pragma once

#include "linalg/matrix.hpp"
#include "support/rng.hpp"

namespace mfcp::nn {

/// A parameter matrix and its gradient, shaped alike (an optimizer's
/// view of one). Both point into a model and stay valid while it lives:
/// moving an Mlp keeps its Linears where they are.
struct Parameter {
  Matrix* value;
  Matrix* grad;
};

struct Linear {
  /// He-normal weights, zero bias and zero gradients.
  Linear(std::size_t in, std::size_t out, Rng& rng);

  [[nodiscard]] std::size_t in_features() const noexcept {
    return weight.cols();
  }
  [[nodiscard]] std::size_t out_features() const noexcept {
    return weight.rows();
  }

  Matrix weight;       // out x in
  Matrix bias;         // 1 x out
  Matrix weight_grad;  // dL/dW
  Matrix bias_grad;    // dL/db
};

}  // namespace mfcp::nn
