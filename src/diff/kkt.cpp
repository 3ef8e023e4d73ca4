#include "diff/kkt.hpp"

#include "linalg/lu.hpp"
#include "support/check.hpp"

namespace mfcp::diff {

namespace {

/// Entries closer than this to the box boundary are treated as *active*:
/// their multipliers are nonzero, their sensitivity is (exponentially)
/// negligible, and keeping them in the reduced system would make it
/// numerically singular. This is standard active-set implicit
/// differentiation.
constexpr double kActiveTol = 1e-7;

/// Index sets for the active-set reduction of the KKT system.
struct FreeSet {
  std::vector<std::size_t> free_vars;   // flattened indices of free x_ij
  std::vector<std::size_t> free_tasks;  // task columns with >= 2 free vars
  std::vector<std::ptrdiff_t> var_pos;  // flat index -> position or -1
};

FreeSet build_free_set(const Matrix& xstar) {
  const std::size_t m = xstar.rows();
  const std::size_t n = xstar.cols();
  FreeSet fs;
  fs.var_pos.assign(m * n, -1);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::size_t> column_free;
    for (std::size_t i = 0; i < m; ++i) {
      const double v = xstar(i, j);
      if (v > kActiveTol && v < 1.0 - kActiveTol) {
        column_free.push_back(i * n + j);
      }
    }
    // A column with fewer than two free entries is fully determined (one
    // free entry is pinned by the simplex equality): drop it entirely.
    if (column_free.size() >= 2) {
      fs.free_tasks.push_back(j);
      for (std::size_t k : column_free) {
        fs.var_pos[k] = static_cast<std::ptrdiff_t>(fs.free_vars.size());
        fs.free_vars.push_back(k);
      }
    }
  }
  return fs;
}

/// Assembles the reduced KKT matrix over the free set with a small
/// Tikhonov term (H is PSD, not always PD, on the free subspace).
Matrix assemble_reduced_kkt(const Matrix& hxx, const FreeSet& fs,
                            std::size_t n) {
  const std::size_t nf = fs.free_vars.size();
  const std::size_t ne = fs.free_tasks.size();
  Matrix k(nf + ne, nf + ne, 0.0);
  for (std::size_t r = 0; r < nf; ++r) {
    for (std::size_t c = 0; c < nf; ++c) {
      k(r, c) = hxx(fs.free_vars[r], fs.free_vars[c]);
    }
    k(r, r) += 1e-10;
  }
  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t task = fs.free_tasks[e];
    for (std::size_t r = 0; r < nf; ++r) {
      if (fs.free_vars[r] % n == task) {
        k(nf + e, r) = 1.0;
        k(r, nf + e) = 1.0;
      }
    }
  }
  return k;
}

}  // namespace

KktJacobians kkt_full_jacobians(
    const matching::KktDifferentiableObjective& objective,
    const Matrix& xstar) {
  const std::size_t m = objective.num_clusters();
  const std::size_t n = objective.num_tasks();
  const std::size_t mn = m * n;
  MFCP_CHECK(xstar.rows() == m && xstar.cols() == n, "X* shape mismatch");

  KktJacobians out;
  out.dx_dt = Matrix::zeros(mn, mn);
  out.dx_da = Matrix::zeros(mn, mn);

  const FreeSet fs = build_free_set(xstar);
  if (fs.free_vars.empty()) {
    return out;  // fully saturated solution: zero sensitivity everywhere
  }
  const std::size_t nf = fs.free_vars.size();
  const std::size_t ne = fs.free_tasks.size();

  const Matrix hxx = objective.hess_xx(xstar);
  const Matrix hxt = objective.hess_xt(xstar);
  const Matrix hxa = objective.hess_xa(xstar);
  const LuFactorization kkt(assemble_reduced_kkt(hxx, fs, n));

  // RHS per parameter s: [-hess_x?(free rows, s); 0].
  Matrix rhs_t(nf + ne, mn, 0.0);
  Matrix rhs_a(nf + ne, mn, 0.0);
  for (std::size_t r = 0; r < nf; ++r) {
    for (std::size_t s = 0; s < mn; ++s) {
      rhs_t(r, s) = -hxt(fs.free_vars[r], s);
      rhs_a(r, s) = -hxa(fs.free_vars[r], s);
    }
  }
  const Matrix sol_t = kkt.solve_multi(rhs_t);
  const Matrix sol_a = kkt.solve_multi(rhs_a);
  for (std::size_t r = 0; r < nf; ++r) {
    for (std::size_t s = 0; s < mn; ++s) {
      out.dx_dt(fs.free_vars[r], s) = sol_t(r, s);
      out.dx_da(fs.free_vars[r], s) = sol_a(r, s);
    }
  }
  return out;
}

KktVjp kkt_vjp(const matching::KktDifferentiableObjective& objective,
               const Matrix& xstar, const Matrix& upstream) {
  const std::size_t m = objective.num_clusters();
  const std::size_t n = objective.num_tasks();
  const std::size_t mn = m * n;
  MFCP_CHECK(upstream.rows() == m && upstream.cols() == n,
             "upstream gradient shape mismatch");

  KktVjp out;
  out.grad_t = Matrix::zeros(m, n);
  out.grad_a = Matrix::zeros(m, n);

  const FreeSet fs = build_free_set(xstar);
  if (fs.free_vars.empty()) {
    return out;
  }
  const std::size_t nf = fs.free_vars.size();
  const std::size_t ne = fs.free_tasks.size();

  const Matrix hxx = objective.hess_xx(xstar);
  const Matrix hxt = objective.hess_xt(xstar);
  const Matrix hxa = objective.hess_xa(xstar);

  // The reduced KKT matrix is symmetric: one adjoint solve K z = [g_f; 0]
  // yields dL/dθ = -B_θ(free rows)^T z_x for both parameter blocks.
  const LuFactorization kkt(assemble_reduced_kkt(hxx, fs, n));
  Matrix rhs(nf + ne, 1, 0.0);
  for (std::size_t r = 0; r < nf; ++r) {
    rhs[r] = upstream[fs.free_vars[r]];
  }
  const Matrix z = kkt.solve(rhs);

  for (std::size_t s = 0; s < mn; ++s) {
    double acc_t = 0.0;
    double acc_a = 0.0;
    for (std::size_t r = 0; r < nf; ++r) {
      acc_t += hxt(fs.free_vars[r], s) * z[r];
      acc_a += hxa(fs.free_vars[r], s) * z[r];
    }
    out.grad_t[s] = -acc_t;
    out.grad_a[s] = -acc_a;
  }
  return out;
}

}  // namespace mfcp::diff
