// Multi-layer perceptron — the predictor architecture of the paper ("we
// only utilized fully connected layers"). One Mlp maps task features
// z (batch x d) through Linear + ReLU hidden layers and a Linear head
// with an output nonlinearity; the execution-time predictor m_ω uses a
// softplus head (t̂ > 0), the reliability predictor m_φ a sigmoid head
// (â in (0,1)). It only holds the matrices: nn/fused_mlp runs it.
#pragma once

#include <vector>

#include "nn/linear.hpp"

namespace mfcp::nn {

/// The head's output nonlinearity.
enum class Activation { kIdentity, kSigmoid, kSoftplus };

/// The logistic and softplus the heads apply per element (softplus's
/// derivative is the logistic). The fused kernels and the autograd
/// tape's ops call these same definitions.
double sigmoid_scalar(double x) noexcept;
double softplus_scalar(double x) noexcept;

struct MlpConfig {
  std::size_t input_dim = 8;
  std::vector<std::size_t> hidden = {32, 32};
  std::size_t output_dim = 1;
  Activation output_activation = Activation::kIdentity;
};

class Mlp {
 public:
  Mlp(MlpConfig config, Rng& rng);

  /// Every parameter with its gradient: weight, then bias, per layer.
  std::vector<Parameter> parameters();

  /// Sets every gradient to zero.
  void zero_grad() noexcept;

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }

  /// The linear layers in order, the head last.
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
