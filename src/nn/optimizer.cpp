#include "nn/optimizer.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mfcp::nn {

Adam::Adam(std::vector<Variable> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  for (const auto& p : params_) {
    MFCP_CHECK(p.requires_grad(), "optimizer over non-trainable parameter");
  }
  MFCP_CHECK(lr > 0.0, "learning rate must be positive");
  MFCP_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 out of range");
  MFCP_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 out of range");
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::zero_grad() {
  for (auto& p : params_) {
    p.zero_grad();
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_;
  const double beta2 = beta2_;
  const double keep1 = 1.0 - beta1_;
  const double keep2 = 1.0 - beta2_;
  const double lr = lr_;
  const double eps = eps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (p.grad().empty()) {
      continue;
    }
    const Matrix& grad = p.grad();
    if (m_[i].empty()) {
      m_[i] = Matrix::zeros(grad.rows(), grad.cols());
      v_[i] = Matrix::zeros(grad.rows(), grad.cols());
    }
    // Raw spans, so the loop vectorizes: each element still takes the
    // same IEEE operations in the same order, and packed division and
    // square root round exactly as the scalar ones do.
    const double* __restrict g = grad.data();
    double* __restrict m = m_[i].data();
    double* __restrict v = v_[i].data();
    double* __restrict w = p.mutable_value().data();
    const std::size_t n = grad.size();
    for (std::size_t k = 0; k < n; ++k) {
      m[k] = beta1 * m[k] + keep1 * g[k];
      v[k] = beta2 * v[k] + keep2 * g[k] * g[k];
      const double mhat = m[k] / bc1;
      const double vhat = v[k] / bc2;
      w[k] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

}  // namespace mfcp::nn
