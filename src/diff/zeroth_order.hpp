// Zeroth-order (forward-gradient) differentiation of the matching layer —
// the engine of MFCP-FG (paper Algorithm 2, Theorem 3).
//
// For non-convex matching objectives (parallel execution, Eq. 16/17) the
// KKT route is unavailable. Instead, the gradient of a scalar loss of the
// predictions is estimated by Gaussian directional perturbations of a
// range of prediction rows (one cluster's row, or all of them):
//     T̂^s = T̂ + Δ V^s,   V^s ~ N(0, I) on the perturbed rows,
//     d L/d T̂  ≈  (1/S) Σ_s [ (L(T̂^s, Â) - L(T̂, Â)) / Δ ] V^s,
// and likewise for Â. With the matching surrogate L = <dL/dX, X*(T̂, Â)>
// (matching_surrogate) the chain rule through X* is folded into the
// estimator, so only S extra solves are needed per step, not S·N. The
// S samples are embarrassingly parallel and run on a thread pool; the
// directions are drawn up front, so the result is bit-reproducible for
// any thread count.
#pragma once

#include <functional>

#include "diff/finite_diff.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"

namespace mfcp::diff {

struct ForwardGradientConfig {
  std::size_t samples = 16;  // S in Algorithm 2
  double delta = 0.05;       // Δ perturbation size for execution times
  /// Δ for reliability perturbations (probabilities live on a much
  /// smaller scale than hours). 0 = use `delta`.
  double delta_reliability = 0.0;

  [[nodiscard]] double reliability_delta() const noexcept {
    return delta_reliability > 0.0 ? delta_reliability : delta;
  }
};

/// Theorem 3's bias/variance balancing perturbation size
/// Δ* = (2 σ_F² / (β² S))^{1/4}.
double optimal_delta(double sigma_f, double beta, std::size_t samples);

/// A scalar pipeline loss L(T̂, Â) — e.g. the TRUE makespan of the rounded
/// deployed assignment. May be piecewise constant: with a perturbation
/// size comparable to the prediction error scale, the Gaussian smoothing
/// of the estimator turns its staircase structure into useful
/// randomized-smoothing gradients (the DBB / perturbed-optimizer view of
/// differentiating through discrete decisions).
using ScalarLoss = std::function<double(const Matrix& t, const Matrix& a)>;

/// The matching surrogate <dL/dX, X*(T, A)>: `solver` maps (T, A) to the
/// relaxed optimal matching and `upstream` is dL/dX* (M x N). Its base
/// value at the predictions is dot(upstream, X*(T̂, Â)).
ScalarLoss matching_surrogate(MatchingSolver solver, Matrix upstream);

struct Gradients {
  Matrix dt;  // dL/dT̂, M x N
  Matrix da;  // dL/dÂ, M x N
};

/// Estimates dL/dT̂ and dL/dÂ with respect to rows [row_begin, row_end) of
/// the prediction matrices, perturbing T̂ by `config.delta` and Â by
/// `config.reliability_delta()`. Entries outside those rows are zero.
/// `base` must equal loss(t_hat, a_hat) (passed in so the caller's solve
/// is reused). If `pool` is non-null the 2·S perturbed losses run in
/// parallel.
Gradients estimate_gradients(const ScalarLoss& loss, const Matrix& t_hat,
                             const Matrix& a_hat, double base,
                             std::size_t row_begin, std::size_t row_end,
                             const ForwardGradientConfig& config, Rng& rng,
                             ThreadPool* pool = nullptr);

}  // namespace mfcp::diff
