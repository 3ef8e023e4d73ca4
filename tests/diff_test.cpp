// Tests for the differentiation module: finite-difference reference,
// KKT implicit differentiation (validated against FD Jacobians of the
// actual solver output), and the zeroth-order forward-gradient estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "diff/finite_diff.hpp"
#include "diff/kkt.hpp"
#include "diff/zeroth_order.hpp"
#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"
#include "matching/barrier.hpp"
#include "matching/solver_mirror.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace mfcp::diff {
namespace {

using matching::BarrierConfig;
using matching::BarrierObjective;
using matching::MatchingProblem;
using matching::MirrorSolverConfig;

MatchingProblem random_problem(std::uint64_t seed, std::size_t m,
                               std::size_t n, double gamma = 0.55) {
  Rng rng(seed);
  MatchingProblem p;
  p.times = Matrix(m, n);
  p.reliability = Matrix(m, n);
  for (std::size_t i = 0; i < p.times.size(); ++i) {
    p.times[i] = rng.uniform(0.4, 2.0);
    p.reliability[i] = rng.uniform(0.6, 0.98);
  }
  p.gamma = gamma;
  return p;
}

/// High-accuracy inner solver shared by the KKT/FD comparisons. Moderate
/// beta keeps the solution well in the interior so the reduced KKT system
/// (box multipliers = 0) is exact.
MirrorSolverConfig tight_solver() {
  MirrorSolverConfig cfg;
  cfg.max_iterations = 20000;
  cfg.tolerance = 1e-11;
  return cfg;
}

/// Cheaper solver for the Monte-Carlo zeroth-order tests, which need many
/// solves but not KKT-grade accuracy.
MirrorSolverConfig loose_solver() {
  MirrorSolverConfig cfg;
  cfg.max_iterations = 1200;
  cfg.tolerance = 1e-8;
  return cfg;
}

MatchingSolver make_loose_solver(double gamma, const BarrierConfig& bcfg) {
  return [gamma, bcfg](const Matrix& t, const Matrix& a) {
    BarrierObjective obj(t, a, gamma, bcfg);
    return matching::solve_mirror(obj, loose_solver()).x;
  };
}

BarrierConfig soft_barrier() {
  BarrierConfig cfg;
  cfg.beta = 4.0;
  cfg.lambda = 0.1;
  return cfg;
}

MatchingSolver make_solver(double gamma, const BarrierConfig& bcfg) {
  return [gamma, bcfg](const Matrix& t, const Matrix& a) {
    BarrierObjective obj(t, a, gamma, bcfg);
    return matching::solve_mirror(obj, tight_solver()).x;
  };
}

// ---------------------------------------------------------- finite diff --

TEST(FiniteDiff, GradientOfQuadratic) {
  const Matrix at{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix g = fd_gradient(
      [](const Matrix& x) {
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          acc += x[i] * x[i];
        }
        return acc;
      },
      at);
  for (std::size_t i = 0; i < at.size(); ++i) {
    EXPECT_NEAR(g[i], 2.0 * at[i], 1e-6);
  }
}

TEST(FiniteDiff, JacobianOfLinearSolverIsExact) {
  // "Solver" X*(T, A) = 2T + 3A has trivially known Jacobians.
  const MatchingSolver solver = [](const Matrix& t, const Matrix& a) {
    Matrix out = t;
    out *= 2.0;
    Matrix a3 = a;
    a3 *= 3.0;
    out += a3;
    return out;
  };
  const Matrix t(2, 2, 1.0);
  const Matrix a(2, 2, 0.5);
  const Matrix jt = fd_jacobian_wrt_times(solver, t, a);
  const Matrix ja = fd_jacobian_wrt_reliability(solver, t, a);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_NEAR(jt(r, s), r == s ? 2.0 : 0.0, 1e-7);
      EXPECT_NEAR(ja(r, s), r == s ? 3.0 : 0.0, 1e-7);
    }
  }
}

// ------------------------------------------------------------------ kkt --

TEST(Kkt, EqualityJacobianStructure) {
  const Matrix d = equality_jacobian(3, 4);
  ASSERT_EQ(d.rows(), 4u);
  ASSERT_EQ(d.cols(), 12u);
  for (std::size_t j = 0; j < 4; ++j) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 12; ++c) {
      row_sum += d(j, c);
      EXPECT_TRUE(d(j, c) == 0.0 || d(j, c) == 1.0);
    }
    EXPECT_DOUBLE_EQ(row_sum, 3.0);
    EXPECT_DOUBLE_EQ(d(j, 0 * 4 + j), 1.0);
  }
}

TEST(Kkt, JacobianColumnsSumToZeroPerTask) {
  // Differentiating the simplex constraint: d(sum_i x_ij)/d theta = 0, so
  // every column of dX/dT must sum to zero within each task block.
  const auto p = random_problem(1, 3, 4);
  BarrierObjective obj(p, soft_barrier());
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const auto jac = kkt_full_jacobians(obj, xstar);
  const std::size_t m = 3;
  const std::size_t n = 4;
  for (std::size_t s = 0; s < m * n; ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      double col = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        col += jac.dx_dt(i * n + j, s);
      }
      EXPECT_NEAR(col, 0.0, 1e-8);
    }
  }
}

TEST(Kkt, JacobianWrtTimesMatchesSolverFiniteDifference) {
  const auto p = random_problem(2, 3, 4);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const auto jac = kkt_full_jacobians(obj, xstar);

  const auto solver = make_solver(p.gamma, bcfg);
  const Matrix fd = fd_jacobian_wrt_times(solver, p.times, p.reliability,
                                          1e-5);
  for (std::size_t r = 0; r < fd.size(); ++r) {
    EXPECT_NEAR(jac.dx_dt[r], fd[r], 5e-3) << "entry " << r;
  }
}

TEST(Kkt, JacobianWrtReliabilityMatchesSolverFiniteDifference) {
  const auto p = random_problem(3, 3, 4);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const auto jac = kkt_full_jacobians(obj, xstar);

  const auto solver = make_solver(p.gamma, bcfg);
  const Matrix fd =
      fd_jacobian_wrt_reliability(solver, p.times, p.reliability, 1e-5);
  for (std::size_t r = 0; r < fd.size(); ++r) {
    EXPECT_NEAR(jac.dx_da[r], fd[r], 5e-3) << "entry " << r;
  }
}

TEST(Kkt, VjpMatchesFullJacobianContraction) {
  const auto p = random_problem(4, 3, 5);
  BarrierObjective obj(p, soft_barrier());
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;

  Rng rng(5);
  Matrix upstream(3, 5);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = rng.normal();
  }

  const auto jac = kkt_full_jacobians(obj, xstar);
  const auto vjp = kkt_vjp(obj, xstar, upstream);

  // dL/dT_s = sum_r upstream_r * dX_r/dT_s.
  for (std::size_t s = 0; s < upstream.size(); ++s) {
    double expect_t = 0.0;
    double expect_a = 0.0;
    for (std::size_t r = 0; r < upstream.size(); ++r) {
      expect_t += upstream[r] * jac.dx_dt(r, s);
      expect_a += upstream[r] * jac.dx_da(r, s);
    }
    EXPECT_NEAR(vjp.grad_t[s], expect_t, 1e-7);
    EXPECT_NEAR(vjp.grad_a[s], expect_a, 1e-7);
  }
}

TEST(Kkt, GradientsPointInDescentDirection) {
  // Sanity for the training loop: increasing a cluster's predicted time on
  // a task must (weakly) reduce that cluster's share of the task.
  const auto p = random_problem(6, 2, 3);
  BarrierObjective obj(p, soft_barrier());
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const auto jac = kkt_full_jacobians(obj, xstar);
  const std::size_t n = 3;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = i * n + j;
      EXPECT_LE(jac.dx_dt(k, k), 1e-9) << "dx_ij/dt_ij must be <= 0";
    }
  }
}

// ----------------------------------------------------------- zeroth order --

TEST(ZerothOrder, OptimalDeltaFormula) {
  // Theorem 3: Delta* = (2 sigma^2 / (beta^2 S))^{1/4}.
  EXPECT_NEAR(optimal_delta(1.0, 1.0, 2), 1.0, 1e-12);
  EXPECT_NEAR(optimal_delta(0.5, 2.0, 16),
              std::pow(2.0 * 0.25 / (4.0 * 16.0), 0.25), 1e-12);
  // More samples -> smaller optimal perturbation.
  EXPECT_LT(optimal_delta(1.0, 1.0, 64), optimal_delta(1.0, 1.0, 4));
}

TEST(ZerothOrder, RowGradientApproachesKktGradient) {
  // On the convex instance the forward-gradient estimate must agree with
  // the analytic KKT VJP as S grows (Algorithm 2 vs §3.3).
  const auto p = random_problem(7, 3, 4);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;

  Rng urng(8);
  Matrix upstream(3, 4);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = urng.normal();
  }
  const auto vjp = kkt_vjp(obj, xstar, upstream);

  const auto solver = make_loose_solver(p.gamma, bcfg);
  ForwardGradientConfig fg;
  fg.samples = 300;
  fg.delta = 0.02;
  Rng rng(9);
  const std::size_t row = 1;
  const auto est =
      estimate_gradients(matching_surrogate(solver, upstream), p.times,
                         p.reliability, dot(upstream, xstar), row, row + 1,
                         fg, rng);

  double ref_norm = 0.0;
  double err = 0.0;
  for (std::size_t j = 0; j < 4; ++j) {
    ref_norm += vjp.grad_t(row, j) * vjp.grad_t(row, j);
    const double d = est.dt(row, j) - vjp.grad_t(row, j);
    err += d * d;
  }
  EXPECT_LT(std::sqrt(err), 0.4 * std::sqrt(ref_norm) + 2e-3);
}

TEST(ZerothOrder, VarianceShrinksWithSamples) {
  const auto p = random_problem(10, 2, 3);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const Matrix upstream(2, 3, 1.0);
  const auto loss =
      matching_surrogate(make_loose_solver(p.gamma, bcfg), upstream);
  const double base = dot(upstream, xstar);

  auto spread = [&](std::size_t samples) {
    // Spread of the first component across independent estimates.
    mfcp::RunningStats stats;
    for (std::uint64_t rep = 0; rep < 8; ++rep) {
      ForwardGradientConfig fg;
      fg.samples = samples;
      fg.delta = 0.05;
      Rng rng(100 + rep);
      const auto est = estimate_gradients(loss, p.times, p.reliability, base,
                                          0, 1, fg, rng);
      stats.add(est.dt(0, 0));
    }
    return stats.stddev();
  };
  EXPECT_LT(spread(64), spread(4) + 1e-9);
}

TEST(ZerothOrder, ParallelMatchesSerialExactly) {
  // Same seed, same samples: the pooled estimator must produce bitwise
  // identical gradients to the serial one.
  const auto p = random_problem(11, 3, 4);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  const Matrix upstream(3, 4, 0.5);
  const auto loss =
      matching_surrogate(make_loose_solver(p.gamma, bcfg), upstream);
  const double base = dot(upstream, xstar);

  ForwardGradientConfig fg;
  fg.samples = 12;
  fg.delta = 0.05;
  fg.delta_reliability = 0.02;
  ThreadPool pool(4);
  const std::pair<std::size_t, std::size_t> row_ranges[] = {{0, 1}, {0, 3}};
  for (const auto& [first, last] : row_ranges) {
    Rng rng_a(42);
    const auto serial = estimate_gradients(loss, p.times, p.reliability,
                                           base, first, last, fg, rng_a);
    Rng rng_b(42);
    const auto parallel = estimate_gradients(
        loss, p.times, p.reliability, base, first, last, fg, rng_b, &pool);
    for (std::size_t k = 0; k < upstream.size(); ++k) {
      EXPECT_EQ(serial.dt[k], parallel.dt[k]);
      EXPECT_EQ(serial.da[k], parallel.da[k]);
    }
  }
}

TEST(ZerothOrder, FullGradientsMatchRowGradientsOnSingleRowUpstream) {
  // When only cluster i's predictions matter, the full-matrix estimator's
  // row i should agree in expectation with the row estimator. We check
  // both against the KKT reference rather than each other (different
  // sampling noise).
  const auto p = random_problem(12, 2, 3);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;
  Matrix upstream(2, 3, 0.0);
  upstream(0, 0) = 1.0;
  upstream(1, 2) = -0.5;
  const auto vjp = kkt_vjp(obj, xstar, upstream);
  const auto solver = make_loose_solver(p.gamma, bcfg);

  ForwardGradientConfig fg;
  fg.samples = 400;
  fg.delta = 0.02;
  Rng rng(13);
  const auto full =
      estimate_gradients(matching_surrogate(solver, upstream), p.times,
                         p.reliability, dot(upstream, xstar), 0, 2, fg, rng);
  double ref = 0.0;
  double err = 0.0;
  for (std::size_t k = 0; k < upstream.size(); ++k) {
    ref += vjp.grad_t[k] * vjp.grad_t[k];
    const double d = full.dt[k] - vjp.grad_t[k];
    err += d * d;
  }
  EXPECT_LT(std::sqrt(err), 0.4 * std::sqrt(ref) + 2e-3);
}


TEST(ZerothOrder, ScalarEstimatorRecoversSmoothGradient) {
  // L(T, A) = sum of squares: gradient 2T (row slice) recovered by the
  // scalar estimator up to Monte-Carlo noise.
  const ScalarLoss loss = [](const Matrix& t, const Matrix& a) {
    double acc = 0.0;
    for (std::size_t k = 0; k < t.size(); ++k) {
      acc += t[k] * t[k] + 0.5 * a[k] * a[k];
    }
    return acc;
  };
  const Matrix t(2, 3, 1.0);
  const Matrix a(2, 3, 0.5);
  ForwardGradientConfig fg;
  fg.samples = 4000;
  fg.delta = 1e-3;
  fg.delta_reliability = 1e-3;
  Rng rng(21);
  const auto est = estimate_gradients(loss, t, a, loss(t, a), 0, 1, fg, rng);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(est.dt(0, j), 2.0, 0.25);
    EXPECT_NEAR(est.da(0, j), 0.5, 0.25);
    // Rows outside the perturbed range carry no gradient.
    EXPECT_EQ(est.dt(1, j), 0.0);
    EXPECT_EQ(est.da(1, j), 0.0);
  }
}

TEST(ZerothOrder, ScalarFullEstimatorMatchesRowOnSeparableLoss) {
  const ScalarLoss loss = [](const Matrix& t, const Matrix&) {
    double acc = 0.0;
    for (std::size_t k = 0; k < t.size(); ++k) {
      acc += 3.0 * t[k];
    }
    return acc;
  };
  const Matrix t(2, 2, 1.0);
  const Matrix a(2, 2, 0.5);
  ForwardGradientConfig fg;
  fg.samples = 4000;
  fg.delta = 1e-3;
  Rng rng(22);
  const auto full = estimate_gradients(loss, t, a, loss(t, a), 0, 2, fg, rng);
  for (std::size_t k = 0; k < t.size(); ++k) {
    EXPECT_NEAR(full.dt[k], 3.0, 0.2);
    EXPECT_NEAR(full.da[k], 0.0, 0.2);
  }
}

TEST(ZerothOrder, ScalarEstimatorSmoothsPiecewiseConstantLoss) {
  // A staircase loss (the rounding situation): the randomized-smoothing
  // gradient should still point uphill on average.
  const ScalarLoss loss = [](const Matrix& t, const Matrix&) {
    return t[0] > 1.0 ? 1.0 : 0.0;
  };
  Matrix t(1, 1, 1.0);  // sitting exactly at the step
  const Matrix a(1, 1, 0.5);
  ForwardGradientConfig fg;
  fg.samples = 2000;
  fg.delta = 0.5;  // perturbation spans the step
  Rng rng(23);
  const auto est = estimate_gradients(loss, t, a, loss(t, a), 0, 1, fg, rng);
  EXPECT_GT(est.dt[0], 0.2);  // positive smoothed slope at the step
}

TEST(ZerothOrder, ReliabilityDeltaDefaultsToDelta) {
  ForwardGradientConfig fg;
  fg.delta = 0.2;
  fg.delta_reliability = 0.0;
  EXPECT_DOUBLE_EQ(fg.reliability_delta(), 0.2);
  fg.delta_reliability = 0.05;
  EXPECT_DOUBLE_EQ(fg.reliability_delta(), 0.05);
}

TEST(ZerothOrder, ReliabilityPerturbationUsesReliabilityDelta) {
  // X*(T, A) = clamp(A, 0, 1) at a = 0.9 has slope 1. Perturbed by the
  // reliability delta (0.01), the estimate recovers it; perturbed by the
  // time delta (0.5), the clamp would bias it to about 0.54 (the
  // Gaussian-smoothed slope P(-1.8 < v < 0.2)). Holds for the matching
  // surrogate as for any other loss.
  const MatchingSolver solver = [](const Matrix&, const Matrix& a) {
    Matrix x = a;
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = std::clamp(x[k], 0.0, 1.0);
    }
    return x;
  };
  const Matrix t(1, 1, 1.0);
  const Matrix a(1, 1, 0.9);
  const Matrix upstream(1, 1, 1.0);
  ForwardGradientConfig fg;
  fg.samples = 2000;
  fg.delta = 0.5;
  fg.delta_reliability = 0.01;
  Rng rng(24);
  const auto est =
      estimate_gradients(matching_surrogate(solver, upstream), t, a,
                         dot(upstream, solver(t, a)), 0, 1, fg, rng);
  EXPECT_NEAR(est.da[0], 1.0, 0.15);
  EXPECT_EQ(est.dt[0], 0.0);  // X* does not depend on T here
}

TEST(ZerothOrder, RejectsBadConfig) {
  const auto p = random_problem(14, 2, 2);
  const ScalarLoss loss = [](const Matrix& t, const Matrix&) { return t[0]; };
  Rng rng(1);
  ForwardGradientConfig fg;
  fg.samples = 0;
  EXPECT_THROW(
      estimate_gradients(loss, p.times, p.reliability, 0.0, 0, 1, fg, rng),
      mfcp::ContractError);
  fg.samples = 4;
  fg.delta = 0.0;
  EXPECT_THROW(
      estimate_gradients(loss, p.times, p.reliability, 0.0, 0, 1, fg, rng),
      mfcp::ContractError);
  fg.delta = 0.1;
  EXPECT_THROW(
      estimate_gradients(loss, p.times, p.reliability, 0.0, 9, 10, fg, rng),
      mfcp::ContractError);
  EXPECT_THROW(
      estimate_gradients(loss, p.times, p.reliability, 0.0, 1, 1, fg, rng),
      mfcp::ContractError);
  EXPECT_THROW(estimate_gradients(loss, p.times, Matrix(2, 3, 0.5), 0.0, 0,
                                  1, fg, rng),
               mfcp::ContractError);
}

// 64-bit FNV-1a over the bytes of dt[0, count) and then da[0, count).
std::uint64_t gradient_digest(const double* dt, const double* da,
                              std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double* values : {dt, da}) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(values);
    for (std::size_t i = 0; i < count * sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(ZerothOrder, EstimatorShapesMatchCommittedDigests) {
  // The four shapes the MFCP-FG trainer calls: one perturbed row or the
  // whole matrix, under the matching surrogate <G, X*(T, A)> or a scalar
  // loss. Each digest covers dL/dT then dL/dA over the perturbed rows.
  // The surrogate shapes set delta_reliability = 0, which makes A's
  // perturbation the time delta. Never update a digest to make this pass
  // on unchanged code.
  const auto p = random_problem(31, 3, 4);
  const auto solver = make_loose_solver(p.gamma, soft_barrier());
  const Matrix xstar = solver(p.times, p.reliability);
  Matrix upstream(3, 4);
  Rng urng(32);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = urng.normal();
  }
  // A non-linear scalar loss of the solve, like the trainer's deployed
  // loss.
  const ScalarLoss loss = [&](const Matrix& t, const Matrix& a) {
    const Matrix x = solver(t, a);
    double acc = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k) {
      acc += x[k] * x[k] * t[k];
    }
    return acc;
  };
  const double base = loss(p.times, p.reliability);
  const auto surrogate = matching_surrogate(solver, upstream);
  const double surrogate_base = dot(upstream, xstar);
  const std::size_t row = 1;
  const std::size_t n = 4;
  ForwardGradientConfig surrogate_fg;
  surrogate_fg.samples = 5;
  surrogate_fg.delta = 0.05;
  surrogate_fg.delta_reliability = 0.0;
  ForwardGradientConfig scalar_fg;
  scalar_fg.samples = 5;
  scalar_fg.delta = 0.3;
  scalar_fg.delta_reliability = 0.04;

  Rng rng_a(33);
  const auto row_surrogate =
      estimate_gradients(surrogate, p.times, p.reliability, surrogate_base,
                         row, row + 1, surrogate_fg, rng_a);
  EXPECT_EQ(gradient_digest(row_surrogate.dt.data() + row * n,
                            row_surrogate.da.data() + row * n, n),
            0x832d1130958bd2baULL);

  Rng rng_b(34);
  const auto full_surrogate =
      estimate_gradients(surrogate, p.times, p.reliability, surrogate_base, 0,
                         3, surrogate_fg, rng_b);
  EXPECT_EQ(gradient_digest(full_surrogate.dt.data(),
                            full_surrogate.da.data(), 3 * n),
            0xcb7d9ed89e32acbbULL);

  Rng rng_c(35);
  const auto row_scalar = estimate_gradients(
      loss, p.times, p.reliability, base, row, row + 1, scalar_fg, rng_c);
  EXPECT_EQ(gradient_digest(row_scalar.dt.data() + row * n,
                            row_scalar.da.data() + row * n, n),
            0x6106415d7258057dULL);

  Rng rng_d(36);
  const auto full_scalar = estimate_gradients(
      loss, p.times, p.reliability, base, 0, 3, scalar_fg, rng_d);
  EXPECT_EQ(gradient_digest(full_scalar.dt.data(), full_scalar.da.data(),
                            3 * n),
            0x07bb38c85985b3f4ULL);
}

// Property sweep: KKT Jacobians vs solver FD across random instances.
class KktProperty : public ::testing::TestWithParam<int> {};

TEST_P(KktProperty, VjpMatchesFiniteDifferenceOfLoss) {
  // End-to-end check of the chain rule: L(T) = <G, X*(T, A)> must satisfy
  // dL/dT == kkt_vjp(..., G).grad_t, compared against FD of L directly.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const std::size_t m = 2 + rng.uniform_index(2);
  const std::size_t n = 2 + rng.uniform_index(3);
  const auto p = random_problem(rng.next_u64(), m, n);
  const BarrierConfig bcfg = soft_barrier();
  BarrierObjective obj(p, bcfg);
  const Matrix xstar = matching::solve_mirror(obj, tight_solver()).x;

  Matrix upstream(m, n);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = rng.normal();
  }
  const auto vjp = kkt_vjp(obj, xstar, upstream);
  const auto solver = make_solver(p.gamma, bcfg);

  const Matrix fd = fd_gradient(
      [&](const Matrix& t) {
        return dot(upstream, solver(t, p.reliability));
      },
      p.times, 1e-5);
  for (std::size_t k = 0; k < fd.size(); ++k) {
    EXPECT_NEAR(vjp.grad_t[k], fd[k], 5e-3) << "entry " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KktProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mfcp::diff
