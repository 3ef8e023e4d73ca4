// Reverse-mode automatic differentiation over dense matrices.
//
// A Variable is a shared handle to a tape node holding a value, an
// accumulated gradient, and a backward closure. Ops (see ops.hpp) build the
// graph as they compute; Variable::backward(seed) runs reverse accumulation
// in topological order.
//
// Two features matter for MFCP specifically:
//  - backward() accepts an arbitrary seed gradient, because the upstream
//    gradient dL/dt̂ arrives from *outside* the tape (the matching layer:
//    KKT implicit differentiation or zeroth-order estimation, paper Eq. 7);
//  - gradients accumulate across multiple backward passes until zero_grad(),
//    so the alternating ω / φ updates can reuse one forward graph.
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

  /// Mutable access to the value of a *leaf* (for optimizer updates).
  [[nodiscard]] Matrix& mutable_value();

  /// Accumulated gradient. Zero-shaped until backward reaches this node.
  [[nodiscard]] const Matrix& grad() const noexcept { return node_->grad; }

  /// A *leaf*'s gradient storage, shaped like its value, for kernels that
  /// compute the gradient outside the tape and overwrite it in place.
  [[nodiscard]] Matrix& grad_slot();

  [[nodiscard]] bool requires_grad() const noexcept {
    return node_->requires_grad;
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    return node_->value.rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    return node_->value.cols();
  }

  /// Clears the gradient of this node only.
  void zero_grad();

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

/// Zeroes gradients of every node reachable from `root` (leaves included).
void zero_grad_graph(const Variable& root);

}  // namespace mfcp::autograd
