#include "matching/solver_dual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/lu.hpp"
#include "matching/barrier.hpp"
#include "matching/detail/solve_common.hpp"
#include "matching/entropy.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

namespace {

/// Newton iterations before the solve gives up and falls back.
constexpr std::size_t kMaxNewtonIterations = 64;
/// Armijo sufficient-ascent fraction and backtracking depth.
constexpr double kArmijo = 1e-4;
constexpr int kMaxHalvings = 40;
/// At or below this Newton decrement the full step is taken without a line
/// search: D would move by less than its own rounding error, and Newton is
/// in its quadratic region.
constexpr double kFullStepDecrement = 1e-10;
/// Largest change of log y_i or log(−ν) in one step.
constexpr double kMaxLogStep = 10.0;

/// The dual's data, read off the objective.
struct Dual {
  const Matrix& t;
  const Matrix& a;
  std::size_t m;
  std::size_t n;
  double gamma;
  double beta;
  double lambda;
  double eps;
  double tau;

  [[nodiscard]] double nu_min() const { return -lambda / eps; }
};

Dual dual_of(const ContinuousObjective& objective) {
  MFCP_CHECK(has_price_dual(objective), "objective has no price dual");
  const auto& entropic = static_cast<const EntropicObjective&>(objective);
  const auto& barrier =
      static_cast<const BarrierObjective&>(entropic.base());
  return Dual{barrier.smoothed().times(), barrier.reliability(),
              objective.num_clusters(),    objective.num_tasks(),
              barrier.gamma(),             barrier.config().beta,
              barrier.config().lambda,     barrier.config().slack_epsilon,
              entropic.tau()};
}

/// A dual point: w = log y, normalised so Σ exp(w) = 1, and ν.
struct Point {
  std::vector<double> w;
  double nu = 0.0;
};

void normalise_log(std::vector<double>& w) {
  const double top = *std::max_element(w.begin(), w.end());
  double total = 0.0;
  for (const double v : w) {
    total += std::exp(v - top);
  }
  const double shift = top + std::log(total);
  for (double& v : w) {
    v -= shift;
  }
}

/// D at a point, with the primal quantities its derivatives need.
struct Eval {
  double value = 0.0;
  Matrix x;               // the column softmax X(y, ν)
  std::vector<double> u;  // loads Σ_j t_ij x_ij
  double slack = 0.0;     // (1/N) Σ_ij a_ij x_ij − γ
};

Eval evaluate(const Dual& d, const Point& p) {
  Eval e;
  e.x = Matrix(d.m, d.n);
  e.u.assign(d.m, 0.0);
  std::vector<double> y(d.m);
  double entropy = 0.0;
  for (std::size_t i = 0; i < d.m; ++i) {
    y[i] = std::exp(p.w[i]);
    entropy -= y[i] * p.w[i];
  }
  const double nd = static_cast<double>(d.n);
  double columns = 0.0;
  double reliability = 0.0;
  for (std::size_t j = 0; j < d.n; ++j) {
    double c_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < d.m; ++i) {
      e.x(i, j) = y[i] * d.t(i, j) + p.nu * d.a(i, j) / nd;
      c_min = std::min(c_min, e.x(i, j));
    }
    double z = 0.0;
    for (std::size_t i = 0; i < d.m; ++i) {
      e.x(i, j) = std::exp(-(e.x(i, j) - c_min) / d.tau);
      z += e.x(i, j);
    }
    columns += c_min - d.tau * std::log(z);
    for (std::size_t i = 0; i < d.m; ++i) {
      e.x(i, j) /= z;
      e.u[i] += d.t(i, j) * e.x(i, j);
      reliability += d.a(i, j) * e.x(i, j);
    }
  }
  e.slack = reliability / nd - d.gamma;
  e.value = entropy / d.beta + d.lambda +
            d.lambda * std::log(-p.nu / d.lambda) - p.nu * d.gamma + columns;
  return e;
}

struct Step {
  std::vector<double> dw;  // direction in log y
  double dnu = 0.0;
  double decrement = 0.0;  // the ascent D'(0) the step promises
  bool ok = false;
};

/// Newton direction at p. Unknowns (dw, dν, μ) with dy = y ⊙ dw:
///   row i:  −dw_i/β + Σ_k A_ik y_k dw_k + B_i dν + μ = −∂D/∂y_i
///   row ν:  Σ_k B_k y_k dw_k + C dν                  = −∂D/∂ν
///   row μ:  Σ_k y_k dw_k                             = 0   (Σy stays 1)
/// where A = ∂u/∂y, B = ∂u/∂ν = ∂s/∂y and C = ∂²D/∂ν². Scaling the y
/// columns by y keeps every row O(1) however small a price gets. With ν
/// held at its bound the ν row and column drop out.
Step newton_step(const Dual& d, const Point& p, const Eval& e,
                 bool nu_free) {
  const std::size_t m = d.m;
  const double nd = static_cast<double>(d.n);
  std::vector<double> y(m);
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = std::exp(p.w[i]);
  }
  // Column j's softmax Jacobian is −(1/τ)(diag(x_j) − x_j x_jᵀ).
  Matrix a_uu(m, m, 0.0);
  std::vector<double> b(m, 0.0);
  double c = -d.lambda / (p.nu * p.nu);
  for (std::size_t j = 0; j < d.n; ++j) {
    double a_bar = 0.0;
    double a_sq = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      a_bar += e.x(i, j) * d.a(i, j);
      a_sq += e.x(i, j) * d.a(i, j) * d.a(i, j);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double txi = d.t(i, j) * e.x(i, j);
      if (txi == 0.0) {
        continue;
      }
      a_uu(i, i) -= txi * d.t(i, j) / d.tau;
      for (std::size_t k = 0; k < m; ++k) {
        a_uu(i, k) += txi * d.t(k, j) * e.x(k, j) / d.tau;
      }
      b[i] -= txi * (d.a(i, j) - a_bar) / (d.tau * nd);
    }
    c -= (a_sq - a_bar * a_bar) / (d.tau * nd * nd);
  }

  const std::size_t dim = m + (nu_free ? 2 : 1);
  const std::size_t mu = dim - 1;
  Matrix h(dim, dim, 0.0);
  Matrix rhs(dim, 1, 0.0);
  std::vector<double> g(m);
  for (std::size_t i = 0; i < m; ++i) {
    g[i] = e.u[i] - (p.w[i] + 1.0) / d.beta;
    for (std::size_t k = 0; k < m; ++k) {
      h(i, k) = a_uu(i, k) * y[k];
    }
    h(i, i) -= 1.0 / d.beta;
    h(i, mu) = 1.0;
    h(mu, i) = y[i];
    rhs(i, 0) = -g[i];
  }
  const double g_nu = d.lambda / p.nu + e.slack;
  if (nu_free) {
    for (std::size_t i = 0; i < m; ++i) {
      h(i, m) = b[i];
      h(m, i) = b[i] * y[i];
    }
    h(m, m) = c;
    rhs(m, 0) = -g_nu;
  }

  Step step;
  Matrix sol;
  try {
    sol = LuFactorization(std::move(h)).solve(rhs);
  } catch (const SingularMatrixError&) {
    return step;
  }
  step.dw.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    step.dw[i] = sol(i, 0);
  }
  if (nu_free) {
    step.dnu = sol(m, 0);
  }
  // Shorten the step so no log y_i or log(−ν) moves by more than
  // kMaxLogStep. Once a price is negligible the quadratic model no longer
  // sees its effect on the loads, and a full step can throw it across
  // hundreds of orders of magnitude (and the flooded cluster's price back
  // again on the next step).
  double largest = std::abs(step.dnu / p.nu);
  for (const double v : step.dw) {
    largest = std::max(largest, std::abs(v));
  }
  const double scale = largest > kMaxLogStep ? kMaxLogStep / largest : 1.0;
  step.dnu *= scale;
  step.decrement = g_nu * step.dnu;
  for (std::size_t i = 0; i < m; ++i) {
    step.dw[i] *= scale;
    step.decrement += g[i] * y[i] * step.dw[i];
  }
  step.ok = std::isfinite(step.decrement);
  return step;
}

/// p moved a fraction alpha along the step: multiplicatively in y (the
/// path is y_i ∝ y_i exp(α dw_i), tangent to y + α dy at α = 0) and in ν
/// (which keeps ν < 0), then ν projected onto its −λ/ε bound.
Point moved(const Dual& d, const Point& p, const Step& s, double alpha) {
  Point q;
  q.w.resize(p.w.size());
  for (std::size_t i = 0; i < p.w.size(); ++i) {
    q.w[i] = p.w[i] + alpha * s.dw[i];
  }
  normalise_log(q.w);
  q.nu = std::max(p.nu * std::exp(alpha * s.dnu / p.nu), d.nu_min());
  return q;
}

/// Starting prices: uniform y, and ν = φ'(s) at the uniform X.
Point start(const Dual& d) {
  Point p;
  p.w.assign(d.m, -std::log(static_cast<double>(d.m)));
  double reliability = 0.0;
  for (std::size_t k = 0; k < d.a.size(); ++k) {
    reliability += d.a[k];
  }
  const double slack =
      reliability / static_cast<double>(d.m * d.n) - d.gamma;
  p.nu = slack > d.eps ? -d.lambda / slack : d.nu_min();
  return p;
}

}  // namespace

bool has_price_dual(const ContinuousObjective& objective) {
  const auto* entropic = dynamic_cast<const EntropicObjective*>(&objective);
  if (entropic == nullptr) {
    return false;
  }
  const auto* barrier =
      dynamic_cast<const BarrierObjective*>(&entropic->base());
  return barrier != nullptr && barrier->smoothed().speedup().is_constant();
}

SolveResult solve_price_dual(const ContinuousObjective& objective,
                             const MirrorSolverConfig& config) {
  const Dual d = dual_of(objective);
  Point p = start(d);
  Eval e = evaluate(d, p);
  std::size_t iterations = 0;
  double residual = std::numeric_limits<double>::infinity();
  while (iterations < kMaxNewtonIterations) {
    // Active set: ν stays on its bound while D still rises below it.
    const bool at_bound = p.nu <= d.nu_min();
    const bool nu_free = !(at_bound && d.lambda / p.nu + e.slack <= 0.0);
    const Step step = newton_step(d, p, e, nu_free);
    if (!step.ok || step.decrement < -kFullStepDecrement) {
      break;  // numerically indefinite: leave it to the residual check
    }
    ++iterations;
    if (step.decrement <= kFullStepDecrement) {
      // A small decrement does not bound the gradient where D is steep
      // (t/τ large), so the quadratic phase runs until X meets the
      // primal tolerance itself.
      p = moved(d, p, step, 1.0);
      e = evaluate(d, p);
      residual = stationarity_residual(objective, e.x, 1e-6);
      if (residual < config.tolerance) {
        break;
      }
      continue;
    }
    bool accepted = false;
    double alpha = 1.0;
    for (int halving = 0; halving <= kMaxHalvings; ++halving) {
      Point q = moved(d, p, step, alpha);
      Eval eq = evaluate(d, q);
      if (eq.value >= e.value + kArmijo * alpha * step.decrement) {
        p = std::move(q);
        e = std::move(eq);
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      break;
    }
  }
  if (!(residual < config.tolerance)) {  // the loop ended another way
    residual = stationarity_residual(objective, e.x, 1e-6);
  }

  SolveResult result;
  if (p.nu <= d.nu_min()) {
    // ν on its bound: the optimum has slack ≤ ε, inside the barrier's
    // linear extension, which exists only so iterates can recover from an
    // infeasible point (barrier.hpp). There is no barrier optimum to
    // certify, so the solve keeps mirror descent's answer from the
    // uniform start, as for an objective without the dual.
    result = detail::mirror_descent(
        objective, uniform_start(d.m, d.n), config);
    result.iterations += iterations;
    result.stop = StopReason::kFellBack;
  } else if (residual < config.tolerance) {
    result.iterations = iterations;
    result.residual = residual;
    result.converged = true;
    result.stop = StopReason::kConverged;
    result.objective = objective.value(e.x);
    result.x = std::move(e.x);
  } else {
    result = detail::mirror_descent(objective, std::move(e.x), config);
    result.iterations += iterations;
    result.stop = StopReason::kFellBack;
  }
  detail::record_solve(result);
  return result;
}

double price_dual_value(const ContinuousObjective& objective,
                        const Matrix& x) {
  const Dual d = dual_of(objective);
  MFCP_CHECK(x.rows() == d.m && x.cols() == d.n, "X shape mismatch");
  Point p;
  p.w.assign(d.m, 0.0);
  double reliability = 0.0;
  for (std::size_t i = 0; i < d.m; ++i) {
    for (std::size_t j = 0; j < d.n; ++j) {
      p.w[i] += d.beta * d.t(i, j) * x(i, j);
      reliability += d.a(i, j) * x(i, j);
    }
  }
  normalise_log(p.w);
  const double slack = reliability / static_cast<double>(d.n) - d.gamma;
  p.nu = slack > d.eps ? -d.lambda / slack : d.nu_min();
  return evaluate(d, p).value;
}

SolveResult solve_relaxed(const ContinuousObjective& objective,
                          const MirrorSolverConfig& config) {
  return has_price_dual(objective) ? solve_price_dual(objective, config)
                                   : solve_mirror(objective, config);
}

}  // namespace mfcp::matching
