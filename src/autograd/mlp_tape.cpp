#include "autograd/mlp_tape.hpp"

#include <vector>

#include "autograd/ops.hpp"
#include "support/check.hpp"

namespace mfcp::autograd {

Variable mlp_graph(const nn::MlpConfig& config,
                   std::span<const Variable> params, const Matrix& x,
                   double scale) {
  const std::size_t layers = config.hidden.size() + 1;
  MFCP_CHECK(params.size() == 2 * layers,
             "mlp_graph: one weight and one bias per layer");
  Variable h(x, /*requires_grad=*/false);
  for (std::size_t l = 0; l < layers; ++l) {
    h = add_row_broadcast(matmul(h, transpose(params[2 * l])),
                          params[2 * l + 1]);
    if (l + 1 < layers) {
      h = relu(h);
    }
  }
  switch (config.output_activation) {
    case nn::Activation::kSoftplus:
      h = softplus(h);
      break;
    case nn::Activation::kSigmoid:
      h = sigmoid(h);
      break;
    case nn::Activation::kIdentity:
      break;
  }
  return scale == 1.0 ? h : autograd::scale(h, scale);
}

double tape_mse_step(nn::Mlp& mlp, nn::Adam& opt, const Matrix& x,
                     const Matrix& target, double scale) {
  const nn::MlpConfig& config = mlp.config();
  MFCP_CHECK(x.cols() == config.input_dim, "MLP input width mismatch");
  MFCP_CHECK(target.rows() == x.rows() && target.cols() == config.output_dim,
             "mse: shape mismatch");
  // The matrices move onto the tape as its leaves and move back with
  // their gradients, so nothing is copied. The checks above are the
  // graph's, so nothing throws while they are away.
  auto& layers = mlp.linear_layers();
  std::vector<Variable> params;
  params.reserve(2 * layers.size());
  for (nn::Linear& lin : layers) {
    params.emplace_back(std::move(lin.weight), /*requires_grad=*/true);
    params.emplace_back(std::move(lin.bias), /*requires_grad=*/true);
  }
  Variable loss = mse_loss(mlp_graph(config, params, x, scale), target);
  loss.backward();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Node& weight = *params[2 * l].node();
    Node& bias = *params[2 * l + 1].node();
    layers[l].weight = std::move(weight.value);
    layers[l].weight_grad = std::move(weight.grad);
    layers[l].bias = std::move(bias.value);
    layers[l].bias_grad = std::move(bias.grad);
  }
  opt.step();
  return loss.value()[0];
}

}  // namespace mfcp::autograd
