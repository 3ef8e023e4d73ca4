#include "autograd/ops.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "nn/mlp.hpp"
#include "support/check.hpp"

namespace mfcp::autograd {

namespace {

/// Creates a result node wired to its parents.
std::shared_ptr<Node> make_node(Matrix value,
                                std::vector<std::shared_ptr<Node>> parents) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    node->requires_grad = node->requires_grad || p->requires_grad;
  }
  return node;
}

}  // namespace

Variable scale(const Variable& a, double s) {
  auto node = make_node(a.value() * s, {a.node()});
  node->backward_fn = [s](const Node& n) {
    n.parents[0]->accumulate(n.grad * s);
  };
  return Variable(node);
}

Variable matmul(const Variable& a, const Variable& b) {
  auto node = make_node(mfcp::matmul(a.value(), b.value()),
                        {a.node(), b.node()});
  node->backward_fn = [](const Node& n) {
    // dA = G B^T, dB = A^T G. A Linear layer's input features need no
    // gradient, so dA is skipped on every training step.
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(matmul_nt(n.grad, n.parents[1]->value));
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(matmul_tn(n.parents[0]->value, n.grad));
    }
  };
  return Variable(node);
}

Variable transpose(const Variable& a) {
  auto node = make_node(a.value().transposed(), {a.node()});
  node->backward_fn = [](const Node& n) {
    n.parents[0]->accumulate(n.grad.transposed());
  };
  return Variable(node);
}

Variable add_row_broadcast(const Variable& a, const Variable& bias) {
  MFCP_CHECK(bias.rows() == 1 && bias.cols() == a.cols(),
             "bias must be 1 x cols(a)");
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) += bias.value()(0, c);
    }
  }
  auto node = make_node(std::move(out), {a.node(), bias.node()});
  node->backward_fn = [](const Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(n.grad);
    }
    if (!n.parents[1]->requires_grad) {
      return;
    }
    Matrix gb(1, n.grad.cols(), 0.0);
    for (std::size_t r = 0; r < n.grad.rows(); ++r) {
      for (std::size_t c = 0; c < n.grad.cols(); ++c) {
        gb(0, c) += n.grad(r, c);
      }
    }
    n.parents[1]->accumulate(gb);
  };
  return Variable(node);
}

Variable relu(const Variable& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::max(0.0, out[i]);
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    Matrix g = n.grad;
    const Matrix& x = n.parents[0]->value;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (x[i] <= 0.0) {
        g[i] = 0.0;
      }
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable sigmoid(const Variable& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = nn::sigmoid_scalar(out[i]);
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    Matrix g = n.grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double y = n.value[i];
      g[i] *= y * (1.0 - y);
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable softplus(const Variable& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = nn::softplus_scalar(out[i]);
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    Matrix g = n.grad;
    const Matrix& x = n.parents[0]->value;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= nn::sigmoid_scalar(x[i]);
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable mse_loss(const Variable& pred, const Matrix& target) {
  MFCP_CHECK(pred.value().same_shape(target), "mse: shape mismatch");
  const std::size_t n = target.size();
  Matrix out(1, 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target[i];
    out[0] += d * d;
  }
  out[0] /= static_cast<double>(n);
  auto node = make_node(std::move(out), {pred.node()});
  node->backward_fn = [target, n](const Node& nd) {
    Matrix g(target.rows(), target.cols());
    const double c = 2.0 / static_cast<double>(n) * nd.grad[0];
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = c * (nd.parents[0]->value[i] - target[i]);
    }
    nd.parents[0]->accumulate(g);
  };
  return Variable(node);
}

}  // namespace mfcp::autograd
