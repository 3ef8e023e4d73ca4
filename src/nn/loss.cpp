#include "nn/loss.hpp"

#include "support/check.hpp"

namespace mfcp::nn {

Variable mse(const Variable& pred, const Matrix& target) {
  return autograd::mse_loss(pred, target);
}

double mse_value(const Matrix& pred, const Matrix& target) {
  MFCP_CHECK(pred.same_shape(target), "mse_value: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    acc += d * d;
  }
  return acc / static_cast<double>(pred.size());
}

}  // namespace mfcp::nn
