#include "autograd/variable.hpp"

#include "autograd/tape.hpp"
#include "support/check.hpp"

namespace mfcp::autograd {

void Node::accumulate(const Matrix& g) {
  if (grad.empty()) {
    grad = Matrix::zeros(value.rows(), value.cols());
  }
  MFCP_CHECK(grad.same_shape(g), "gradient shape mismatch");
  grad += g;
}

Variable::Variable(Matrix value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

void Variable::backward() {
  MFCP_CHECK(node_->value.size() == 1,
             "seedless backward requires a scalar output");
  backward(Matrix::ones(node_->value.rows(), node_->value.cols()));
}

void Variable::backward(const Matrix& seed) {
  MFCP_CHECK(seed.same_shape(node_->value),
             "backward seed must match output shape");
  node_->accumulate(seed);
  run_backward(node_);
}

}  // namespace mfcp::autograd
