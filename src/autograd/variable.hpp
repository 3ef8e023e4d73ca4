// Reverse-mode automatic differentiation over dense matrices.
//
// A Variable is a shared handle to a tape node holding a value, an
// accumulated gradient, and a backward closure. Ops (see ops.hpp) build the
// graph as they compute; Variable::backward(seed) runs reverse accumulation
// in topological order.
//
// backward() accepts an arbitrary seed gradient, and a leaf's gradient
// accumulates across backward passes over graphs that share it: the
// semantics nn::fused_backward reproduces for the matching layer's
// dL/dt̂ (paper Eq. 7), which arrives from outside the network.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"

namespace mfcp::autograd {

struct Node {
  Matrix value;
  Matrix grad;  // same shape as value once backward touches this node
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this node's grad into parents' grads. Null for leaves.
  std::function<void(const Node&)> backward_fn;

  /// Adds g into grad, allocating a zero gradient on first touch.
  void accumulate(const Matrix& g);
};

class Variable {
 public:
  /// Wraps a value as a leaf. `requires_grad` marks trainable parameters.
  explicit Variable(Matrix value, bool requires_grad = false);

  /// Internal: wraps an existing node (used by ops).
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  [[nodiscard]] const Matrix& value() const noexcept { return node_->value; }

  /// Accumulated gradient. Zero-shaped until backward reaches this node.
  [[nodiscard]] const Matrix& grad() const noexcept { return node_->grad; }

  [[nodiscard]] bool requires_grad() const noexcept {
    return node_->requires_grad;
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    return node_->value.rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    return node_->value.cols();
  }

  /// Reverse pass from this node seeded with dOut = ones (requires a 1x1
  /// scalar output; use the seeded overload otherwise).
  void backward();

  /// Reverse pass seeded with an explicit upstream gradient dL/d(this).
  void backward(const Matrix& seed);

  [[nodiscard]] const std::shared_ptr<Node>& node() const noexcept {
    return node_;
  }

 private:
  std::shared_ptr<Node> node_;
};

}  // namespace mfcp::autograd
