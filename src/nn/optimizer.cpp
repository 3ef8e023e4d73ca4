#include "nn/optimizer.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mfcp::nn {

Adam::Adam(std::vector<Parameter> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  MFCP_CHECK(lr > 0.0, "learning rate must be positive");
  MFCP_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 out of range");
  MFCP_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 out of range");
  for (const Parameter& p : params_) {
    MFCP_CHECK(p.value->same_shape(*p.grad),
               "a parameter and its gradient must have one shape");
    m_.push_back(Matrix::zeros(p.value->rows(), p.value->cols()));
    v_.push_back(Matrix::zeros(p.value->rows(), p.value->cols()));
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
    // Raw spans, so the loop vectorizes: each element still takes the
    // same IEEE operations in the same order, and packed division and
    // square root round exactly as the scalar ones do.
    const double* __restrict g = params_[i].grad->data();
    double* __restrict m = m_[i].data();
    double* __restrict v = v_[i].data();
    double* __restrict w = params_[i].value->data();
    const std::size_t n = params_[i].grad->size();
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
