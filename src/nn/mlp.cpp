#include "nn/mlp.hpp"

#include "nn/fused_mlp.hpp"
#include "support/check.hpp"

namespace mfcp::nn {

Mlp::Mlp(MlpConfig config, Rng& rng) : config_(std::move(config)) {
  MFCP_CHECK(config_.input_dim > 0, "input dim must be positive");
  MFCP_CHECK(config_.output_dim > 0, "output dim must be positive");
  std::size_t prev = config_.input_dim;
  for (std::size_t width : config_.hidden) {
    MFCP_CHECK(width > 0, "hidden width must be positive");
    layers_.push_back(std::make_unique<Linear>(prev, width, rng));
    linears_.push_back(static_cast<Linear*>(layers_.back().get()));
    layers_.push_back(
        std::make_unique<ActivationLayer>(config_.hidden_activation));
    prev = width;
  }
  layers_.push_back(std::make_unique<Linear>(prev, config_.output_dim, rng));
  linears_.push_back(static_cast<Linear*>(layers_.back().get()));
  if (config_.output_activation != Activation::kIdentity) {
    layers_.push_back(
        std::make_unique<ActivationLayer>(config_.output_activation));
  }
}

Variable Mlp::forward(const Variable& x) {
  Variable h = x;
  for (auto& layer : layers_) {
    h = layer->forward(h);
  }
  return h;
}

Matrix Mlp::predict(const Matrix& x) {
  if (!fused_supported(config_)) {
    return forward(Variable(x, /*requires_grad=*/false)).value();
  }
  Matrix out(x.rows(), config_.output_dim);
  fused_forward(*this, x, 1.0, out.flat());
  return out;
}

std::vector<Variable> Mlp::parameters() {
  std::vector<Variable> params;
  for (auto& layer : layers_) {
    for (auto& p : layer->parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::size_t Mlp::parameter_count() {
  std::size_t n = 0;
  for (auto& p : parameters()) {
    n += p.value().size();
  }
  return n;
}

}  // namespace mfcp::nn
