// Entropic regularization of the relaxed matching problem.
//
// The smoothed, barrier-augmented objective (Eq. 9) is smooth, but its
// argmin over the product of simplices still frequently lies at a vertex
// (every task fully committed to one cluster). At a vertex the optimal
// matching is locally *constant* in the predictions — dX*/dT̂ = 0 — and
// decision-focused training receives no gradient: the step-function
// problem of §3.2 resurfaces at the solution rather than in the objective.
//
// Adding a small entropy term
//     F_τ(X) = F(X) + τ Σ_ij x_ij log x_ij
// makes the minimizer unique and strictly interior (standard in the DFL
// literature, e.g. Wilder et al. 2019; it is also what the paper's literal
// Algorithm-1 softmax re-projection converges to in effect — its fixed
// points satisfy a softmax condition, not a vertex condition). The KKT
// Hessian gains the diagonal τ/x_ij, which simultaneously conditions the
// sensitivity system.
#pragma once

#include <memory>

#include "matching/smooth_objective.hpp"

namespace mfcp::matching {

/// The entropy weight τ of the matching the platform trains through (the
/// decision-focused trainers' inner problem) and the one it deploys (the
/// deploy solve and its attribution polish). One constant, so the deployed
/// operator is exactly the one the predictors were trained through.
inline constexpr double kEntropyTau = 0.1;

/// Decorator adding τ Σ x log x to any continuous objective.
class EntropicObjective final : public ContinuousObjective {
 public:
  EntropicObjective(std::unique_ptr<ContinuousObjective> base, double tau);

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return base_->num_clusters();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return base_->num_tasks();
  }
  [[nodiscard]] double value(const Matrix& x) const override;
  [[nodiscard]] Matrix grad_x(const Matrix& x) const override;

  [[nodiscard]] double tau() const noexcept { return tau_; }
  [[nodiscard]] const ContinuousObjective& base() const noexcept {
    return *base_;
  }

 private:
  std::unique_ptr<ContinuousObjective> base_;
  double tau_;
};

/// Decorator adding τ Σ x log x to a KKT-differentiable objective:
/// hess_xx gains diag(τ / x); the cross blocks are untouched (the entropy
/// does not involve T or A).
class EntropicKktObjective final : public KktDifferentiableObjective {
 public:
  EntropicKktObjective(std::unique_ptr<KktDifferentiableObjective> base,
                       double tau);

  [[nodiscard]] std::size_t num_clusters() const noexcept override {
    return base_->num_clusters();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept override {
    return base_->num_tasks();
  }
  [[nodiscard]] double value(const Matrix& x) const override;
  [[nodiscard]] Matrix grad_x(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xx(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xt(const Matrix& x) const override;
  [[nodiscard]] Matrix hess_xa(const Matrix& x) const override;

  [[nodiscard]] double tau() const noexcept { return tau_; }

 private:
  std::unique_ptr<KktDifferentiableObjective> base_;
  double tau_;
};

/// Shared math: entropy value/gradient/diagonal-Hessian with a floor to
/// keep log finite at the solver's interior floor.
double entropy_value(const Matrix& x, double tau);
void add_entropy_gradient(const Matrix& x, double tau, Matrix& grad);
void add_entropy_hessian_diag(const Matrix& x, double tau, Matrix& hess);

}  // namespace mfcp::matching
