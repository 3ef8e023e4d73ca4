// Adam (Kingma & Ba) with bias correction.
//
// The optimizer steps (value, gradient) matrix pairs that live in the
// model (Mlp::parameters()); step() consumes whatever gradients the
// backward passes accumulated since the model's last zero_grad(). This
// supports MFCP's alternating schedule (fix φ while stepping ω and vice
// versa) by simply building two optimizers over the two models.
#pragma once

#include <vector>

#include "nn/linear.hpp"

namespace mfcp::nn {

class Adam {
 public:
  Adam(std::vector<Parameter> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update to every parameter from its gradient.
  void step();

 private:
  std::vector<Parameter> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace mfcp::nn
