#include "autograd/tape.hpp"

#include <unordered_set>

namespace mfcp::autograd {

namespace {

void visit(const std::shared_ptr<Node>& node,
           std::unordered_set<const Node*>& seen,
           std::vector<std::shared_ptr<Node>>& order) {
  if (!node || seen.contains(node.get())) {
    return;
  }
  seen.insert(node.get());
  for (const auto& parent : node->parents) {
    visit(parent, seen, order);
  }
  order.push_back(node);
}

}  // namespace

std::vector<std::shared_ptr<Node>> topological_order(
    const std::shared_ptr<Node>& root) {
  std::unordered_set<const Node*> seen;
  std::vector<std::shared_ptr<Node>> order;
  visit(root, seen, order);
  return order;
}

void run_backward(const std::shared_ptr<Node>& root) {
  const auto order = topological_order(root);
  // Reverse topological order: every node's grad is complete before its
  // backward_fn distributes it to parents. A node that requires no
  // gradient has no trainable ancestor, so its backward is skipped.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node& node = **it;
    if (node.backward_fn && node.requires_grad && !node.grad.empty()) {
      node.backward_fn(node);
    }
  }
}

}  // namespace mfcp::autograd
