// Multi-layer perceptron — the predictor architecture of the paper ("we
// only utilized fully connected layers"). One Mlp maps task features
// z (batch x d) to a scalar head (batch x 1); the execution-time predictor
// m_ω uses a softplus output (t̂ > 0), the reliability predictor m_φ uses a
// sigmoid output (â in (0,1)).
#pragma once

#include <memory>

#include "nn/activations.hpp"
#include "nn/linear.hpp"

namespace mfcp::nn {

struct MlpConfig {
  std::size_t input_dim = 8;
  std::vector<std::size_t> hidden = {32, 32};
  std::size_t output_dim = 1;
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kIdentity;
};

class Mlp {
 public:
  Mlp(MlpConfig config, Rng& rng);

  /// Forward pass building a fresh autograd graph.
  Variable forward(const Variable& x);

  /// Output value for a constant input, computed without the tape
  /// (nn/fused_mlp) when the kernels cover this configuration.
  Matrix predict(const Matrix& x);

  /// All trainable parameter handles, layer order.
  std::vector<Variable> parameters();

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count();

  /// The linear layers in order (serialization and the fused kernels).
  [[nodiscard]] const std::vector<Linear*>& linear_layers() const noexcept {
    return linears_;
  }

 private:
  MlpConfig config_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Linear*> linears_;  // into layers_
};

}  // namespace mfcp::nn
