#include "finite_diff.hpp"

#include "support/check.hpp"

namespace mfcp::diff {

namespace {

Matrix fd_jacobian(const MatchingSolver& solver, const Matrix& times,
                   const Matrix& reliability, double h, bool wrt_times) {
  MFCP_CHECK(h > 0.0, "finite-difference step must be positive");
  const std::size_t mn = times.size();
  Matrix jac(mn, mn);
  for (std::size_t s = 0; s < mn; ++s) {
    Matrix t_plus = times;
    Matrix t_minus = times;
    Matrix a_plus = reliability;
    Matrix a_minus = reliability;
    if (wrt_times) {
      t_plus[s] += h;
      t_minus[s] -= h;
    } else {
      a_plus[s] += h;
      a_minus[s] -= h;
    }
    const Matrix x_plus = solver(t_plus, a_plus);
    const Matrix x_minus = solver(t_minus, a_minus);
    MFCP_CHECK(x_plus.size() == mn && x_minus.size() == mn,
               "solver output shape mismatch");
    for (std::size_t r = 0; r < mn; ++r) {
      jac(r, s) = (x_plus[r] - x_minus[r]) / (2.0 * h);
    }
  }
  return jac;
}

}  // namespace

Matrix fd_jacobian_wrt_times(const MatchingSolver& solver, const Matrix& times,
                             const Matrix& reliability, double h) {
  return fd_jacobian(solver, times, reliability, h, /*wrt_times=*/true);
}

Matrix fd_jacobian_wrt_reliability(const MatchingSolver& solver,
                                   const Matrix& times,
                                   const Matrix& reliability, double h) {
  return fd_jacobian(solver, times, reliability, h, /*wrt_times=*/false);
}

Matrix fd_gradient(const std::function<double(const Matrix&)>& fn,
                   const Matrix& at, double h) {
  MFCP_CHECK(h > 0.0, "finite-difference step must be positive");
  Matrix grad(at.rows(), at.cols());
  Matrix point = at;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double saved = point[i];
    point[i] = saved + h;
    const double f_plus = fn(point);
    point[i] = saved - h;
    const double f_minus = fn(point);
    point[i] = saved;
    grad[i] = (f_plus - f_minus) / (2.0 * h);
  }
  return grad;
}

}  // namespace mfcp::diff
