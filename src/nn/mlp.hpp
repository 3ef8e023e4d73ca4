// Multi-layer perceptron — the predictor architecture of the paper ("we
// only utilized fully connected layers"). One Mlp maps task features
// z (batch x d) through Linear + ReLU hidden layers and a Linear head
// with an output nonlinearity; the execution-time predictor m_ω uses a
// softplus head (t̂ > 0), the reliability predictor m_φ a sigmoid head
// (â in (0,1)).
#pragma once

#include <vector>

#include "nn/linear.hpp"

namespace mfcp::nn {

/// The head's output nonlinearity.
enum class Activation { kIdentity, kSigmoid, kSoftplus };

struct MlpConfig {
  std::size_t input_dim = 8;
  std::vector<std::size_t> hidden = {32, 32};
  std::size_t output_dim = 1;
  Activation output_activation = Activation::kIdentity;
};

class Mlp {
 public:
  Mlp(MlpConfig config, Rng& rng);

  // A copy would share the parameter handles, so there is none.
  Mlp(const Mlp&) = delete;
  Mlp& operator=(const Mlp&) = delete;
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// Forward pass building a fresh autograd graph.
  Variable forward(const Variable& x);

  /// All trainable parameter handles, layer order.
  std::vector<Variable> parameters();

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }

  /// The linear layers in order, the head last (serialization and the
  /// fused kernels).
  [[nodiscard]] std::vector<Linear>& linear_layers() noexcept {
    return linears_;
  }
  [[nodiscard]] const std::vector<Linear>& linear_layers() const noexcept {
    return linears_;
  }

 private:
  MlpConfig config_;
  std::vector<Linear> linears_;
};

}  // namespace mfcp::nn
