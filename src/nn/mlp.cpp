#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mfcp::nn {

double sigmoid_scalar(double x) noexcept {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

double softplus_scalar(double x) noexcept {
  // Stable: softplus(x) = max(x, 0) + log1p(exp(-|x|)).
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

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

std::vector<Parameter> Mlp::parameters() {
  std::vector<Parameter> params;
  for (Linear& lin : linears_) {
    params.push_back({&lin.weight, &lin.weight_grad});
    params.push_back({&lin.bias, &lin.bias_grad});
  }
  return params;
}

void Mlp::zero_grad() noexcept {
  for (Linear& lin : linears_) {
    lin.weight_grad.fill(0.0);
    lin.bias_grad.fill(0.0);
  }
}

}  // namespace mfcp::nn
