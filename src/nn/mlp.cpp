#include "nn/mlp.hpp"

#include "autograd/ops.hpp"
#include "support/check.hpp"

namespace mfcp::nn {

Mlp::Mlp(MlpConfig config, Rng& rng) : config_(std::move(config)) {
  MFCP_CHECK(config_.input_dim > 0, "input dim must be positive");
  MFCP_CHECK(config_.output_dim > 0, "output dim must be positive");
  std::size_t prev = config_.input_dim;
  for (std::size_t width : config_.hidden) {
    MFCP_CHECK(width > 0, "hidden width must be positive");
    linears_.emplace_back(prev, width, rng);
    prev = width;
  }
  linears_.emplace_back(prev, config_.output_dim, rng);
}

Variable Mlp::forward(const Variable& x) {
  Variable h = x;
  for (std::size_t l = 0; l + 1 < linears_.size(); ++l) {
    h = autograd::relu(linears_[l].forward(h));
  }
  h = linears_.back().forward(h);
  switch (config_.output_activation) {
    case Activation::kSoftplus:
      return autograd::softplus(h);
    case Activation::kSigmoid:
      return autograd::sigmoid(h);
    case Activation::kIdentity:
      break;
  }
  return h;
}

std::vector<Variable> Mlp::parameters() {
  std::vector<Variable> params;
  for (Linear& lin : linears_) {
    for (Variable& p : lin.parameters()) {
      params.push_back(std::move(p));
    }
  }
  return params;
}

}  // namespace mfcp::nn
