#include "autograd/ops.hpp"

#include <cmath>

#include "linalg/blas.hpp"
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

double sigmoid_scalar(double x) noexcept {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

double softplus_scalar(double x) noexcept {
  // Stable: softplus(x) = max(x, 0) + log1p(exp(-|x|)).
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

Variable add(const Variable& a, const Variable& b) {
  MFCP_CHECK(a.value().same_shape(b.value()), "add: shape mismatch");
  auto node = make_node(a.value() + b.value(), {a.node(), b.node()});
  node->backward_fn = [](const Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(n.grad);
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(n.grad);
    }
  };
  return Variable(node);
}

Variable sub(const Variable& a, const Variable& b) {
  MFCP_CHECK(a.value().same_shape(b.value()), "sub: shape mismatch");
  auto node = make_node(a.value() - b.value(), {a.node(), b.node()});
  node->backward_fn = [](const Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(n.grad);
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(n.grad * -1.0);
    }
  };
  return Variable(node);
}

Variable mul(const Variable& a, const Variable& b) {
  MFCP_CHECK(a.value().same_shape(b.value()), "mul: shape mismatch");
  auto node = make_node(hadamard(a.value(), b.value()), {a.node(), b.node()});
  node->backward_fn = [](const Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(hadamard(n.grad, n.parents[1]->value));
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(hadamard(n.grad, n.parents[0]->value));
    }
  };
  return Variable(node);
}

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

Variable tanh_op(const Variable& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::tanh(out[i]);
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    Matrix g = n.grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double y = n.value[i];
      g[i] *= 1.0 - y * y;
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable sigmoid(const Variable& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = sigmoid_scalar(out[i]);
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
    out[i] = softplus_scalar(out[i]);
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    Matrix g = n.grad;
    const Matrix& x = n.parents[0]->value;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= sigmoid_scalar(x[i]);
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable logsumexp(const Variable& a, double beta) {
  MFCP_CHECK(!a.value().empty(), "logsumexp of empty variable");
  MFCP_CHECK(beta > 0.0, "logsumexp requires beta > 0");
  const Matrix& x = a.value();
  double mx = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    mx = std::max(mx, x[i]);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    total += std::exp(beta * (x[i] - mx));
  }
  Matrix out(1, 1, mx + std::log(total) / beta);
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [beta, mx, total](const Node& n) {
    // d/dx_i = softmax(beta x)_i.
    const Matrix& x_val = n.parents[0]->value;
    Matrix g(x_val.rows(), x_val.cols());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = n.grad[0] * std::exp(beta * (x_val[i] - mx)) / total;
    }
    n.parents[0]->accumulate(g);
  };
  return Variable(node);
}

Variable sum_all(const Variable& a) {
  Matrix out(1, 1, 0.0);
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    out[0] += a.value()[i];
  }
  auto node = make_node(std::move(out), {a.node()});
  node->backward_fn = [](const Node& n) {
    const auto& p = n.parents[0];
    n.parents[0]->accumulate(
        Matrix(p->value.rows(), p->value.cols(), n.grad[0]));
  };
  return Variable(node);
}

Variable mean_all(const Variable& a) {
  MFCP_CHECK(!a.value().empty(), "mean of empty variable");
  return scale(sum_all(a), 1.0 / static_cast<double>(a.value().size()));
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
