// Adam (Kingma & Ba) with bias correction.
//
// The optimizer holds shared handles to the model's parameter Variables;
// step() consumes whatever gradients backward passes accumulated since
// the last zero_grad(). This supports MFCP's alternating schedule (fix φ
// while stepping ω and vice versa) by simply building two optimizers over
// the two parameter sets.
#pragma once

#include <vector>

#include "autograd/variable.hpp"

namespace mfcp::nn {

using autograd::Variable;

class Adam {
 public:
  Adam(std::vector<Variable> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update using the accumulated gradients. Parameters whose
  /// gradient is empty (untouched by backward) are skipped.
  void step();

  /// Clears gradients of all managed parameters.
  void zero_grad();

 private:
  std::vector<Variable> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace mfcp::nn
