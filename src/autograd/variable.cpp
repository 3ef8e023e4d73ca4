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

Matrix& Variable::mutable_value() {
  MFCP_CHECK(node_->parents.empty(),
             "only leaf values may be mutated (optimizer updates)");
  return node_->value;
}

Matrix& Variable::grad_slot() {
  MFCP_CHECK(node_->parents.empty(), "only leaves have a gradient slot");
  if (!node_->grad.same_shape(node_->value)) {
    node_->grad = Matrix(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

void Variable::zero_grad() { node_->grad = Matrix(); }

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

void zero_grad_graph(const Variable& root) {
  for (const auto& node : topological_order(root.node())) {
    node->grad = Matrix();
  }
}

}  // namespace mfcp::autograd
