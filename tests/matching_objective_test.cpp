// Tests for the matching objectives: hard evaluation functions, the
// smoothed makespan (Theorem 1 properties), barrier and penalty objectives
// — every analytic gradient is validated against finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "diff/kkt.hpp"
#include "finite_diff.hpp"
#include "matching/barrier.hpp"
#include "matching/objective.hpp"
#include "matching/entropy.hpp"
#include "matching/penalty.hpp"
#include "matching/problem.hpp"
#include "matching/solver_mirror.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mfcp::matching {
namespace {

Matrix random_times(std::size_t m, std::size_t n, Rng& rng) {
  Matrix t(m, n);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = rng.uniform(0.2, 3.0);
  }
  return t;
}

Matrix random_reliability(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform(0.5, 0.99);
  }
  return a;
}

/// Random strictly-interior point on the product of simplices.
Matrix random_interior(std::size_t m, std::size_t n, Rng& rng) {
  Matrix x(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      x(i, j) = rng.uniform(0.1, 1.0);
      total += x(i, j);
    }
    for (std::size_t i = 0; i < m; ++i) {
      x(i, j) /= total;
    }
  }
  return x;
}

MatchingProblem small_problem(std::uint64_t seed = 1, std::size_t m = 3,
                              std::size_t n = 5) {
  Rng rng(seed);
  MatchingProblem p;
  p.times = random_times(m, n, rng);
  p.reliability = random_reliability(m, n, rng);
  p.gamma = 0.6;
  return p;
}

// -------------------------------------------------------------- problem --

TEST(Problem, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(small_problem().validate());
}

TEST(Problem, ValidateRejectsNonPositiveTimes) {
  auto p = small_problem();
  p.times(0, 0) = 0.0;
  EXPECT_THROW(p.validate(), ContractError);
}

TEST(Problem, ValidateRejectsBadReliability) {
  auto p = small_problem();
  p.reliability(1, 1) = 1.5;
  EXPECT_THROW(p.validate(), ContractError);
}

TEST(Problem, ValidateRejectsShapeMismatch) {
  auto p = small_problem();
  p.reliability = Matrix(2, 5, 0.9);
  EXPECT_THROW(p.validate(), ContractError);
}

TEST(Problem, WithMetricsSwapsMatrices) {
  const auto p = small_problem();
  const Matrix t2(3, 5, 1.0);
  const Matrix a2(3, 5, 0.9);
  const auto q = p.with_metrics(t2, a2);
  EXPECT_TRUE(approx_equal(q.times, t2));
  EXPECT_DOUBLE_EQ(q.gamma, p.gamma);
}

TEST(Problem, AssignmentMatrixRoundTrip) {
  const Assignment a = {0, 2, 1, 2, 0};
  const Matrix x = assignment_to_matrix(a, 3);
  EXPECT_EQ(matrix_to_assignment(x), a);
  for (std::size_t j = 0; j < 5; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      col += x(i, j);
    }
    EXPECT_DOUBLE_EQ(col, 1.0);
  }
}

TEST(Problem, AssignmentMatrixRejectsBadCluster) {
  EXPECT_THROW(assignment_to_matrix({0, 7}, 3), ContractError);
}

TEST(Problem, ClusterLoadsSumAssignedTimes) {
  const auto p = small_problem();
  const Assignment a = {0, 0, 1, 2, 1};
  const auto loads = cluster_loads(a, p.times);
  EXPECT_NEAR(loads[0], p.times(0, 0) + p.times(0, 1), 1e-12);
  EXPECT_NEAR(loads[1], p.times(1, 2) + p.times(1, 4), 1e-12);
  EXPECT_NEAR(loads[2], p.times(2, 3), 1e-12);
}

// ------------------------------------------------------ hard objectives --

TEST(Objective, MakespanOfAssignmentIsMaxLoad) {
  const auto p = small_problem();
  const Assignment a = {0, 0, 1, 2, 1};
  const auto loads = cluster_loads(a, p.times);
  const double expected = std::max({loads[0], loads[1], loads[2]});
  EXPECT_NEAR(makespan(a, p.times, p.speedup), expected, 1e-12);
}

TEST(Objective, MakespanWithSpeedupScalesLoads) {
  const auto p = small_problem();
  const auto zeta = sim::SpeedupCurve::exponential_decay(0.6, 0.5);
  const Assignment all_one_cluster = {0, 0, 0, 0, 0};
  const double exclusive =
      makespan(all_one_cluster, p.times, sim::SpeedupCurve::exclusive());
  const double shared = makespan(all_one_cluster, p.times, zeta);
  EXPECT_LT(shared, exclusive);
  EXPECT_NEAR(shared, zeta.value(5.0) * exclusive, 1e-12);
}

TEST(Objective, LinearCostIsSumOfLoads) {
  const auto p = small_problem();
  const Assignment a = {1, 1, 1, 1, 1};
  const Matrix x = assignment_to_matrix(a, 3);
  double sum_row1 = 0.0;
  for (std::size_t j = 0; j < 5; ++j) {
    sum_row1 += p.times(1, j);
  }
  EXPECT_NEAR(linear_cost(x, p.times, p.speedup), sum_row1, 1e-12);
}

TEST(Objective, AverageReliabilityOfAssignment) {
  const auto p = small_problem();
  const Assignment a = {0, 1, 2, 0, 1};
  double expected = 0.0;
  for (std::size_t j = 0; j < 5; ++j) {
    expected += p.reliability(static_cast<std::size_t>(a[j]), j);
  }
  expected /= 5.0;
  EXPECT_NEAR(average_reliability(a, p.reliability), expected, 1e-12);
}

TEST(Objective, FeasibilityThreshold) {
  auto p = small_problem();
  const Assignment a = {0, 0, 0, 0, 0};
  const double avg = average_reliability(a, p.reliability);
  p.gamma = avg - 0.01;
  EXPECT_TRUE(is_feasible(a, p));
  p.gamma = avg + 0.01;
  EXPECT_FALSE(is_feasible(a, p));
}

TEST(Objective, UtilizationOneWhenPerfectlyBalanced) {
  Matrix t(2, 2, 1.0);
  const Assignment a = {0, 1};
  EXPECT_NEAR(utilization(a, t, sim::SpeedupCurve::exclusive()), 1.0, 1e-12);
}

TEST(Objective, UtilizationDropsWhenConcentrated) {
  Matrix t(3, 3, 1.0);
  const Assignment concentrated = {0, 0, 0};
  EXPECT_NEAR(utilization(concentrated, t, sim::SpeedupCurve::exclusive()),
              1.0 / 3.0, 1e-12);
}

// ------------------------------------------------------- smoothed (f̃) --

TEST(Smoothed, BoundsHardMakespan) {
  // Theorem 1: f <= f̃ <= f + log(M)/beta, for any X.
  const auto p = small_problem(7);
  Rng rng(8);
  for (double beta : {1.0, 5.0, 20.0, 100.0}) {
    SmoothedMakespan f(p.times, beta);
    for (int rep = 0; rep < 5; ++rep) {
      const Matrix x = random_interior(3, 5, rng);
      const double hard = makespan(x, p.times, p.speedup);
      const double smooth = f.value(x);
      EXPECT_GE(smooth, hard - 1e-10);
      EXPECT_LE(smooth, hard + std::log(3.0) / beta + 1e-10);
    }
  }
}

TEST(Smoothed, ConvergesToHardMakespanAsBetaGrows) {
  const auto p = small_problem(9);
  Rng rng(10);
  const Matrix x = random_interior(3, 5, rng);
  const double hard = makespan(x, p.times, p.speedup);
  double prev_gap = 1e9;
  for (double beta : {1.0, 10.0, 100.0, 1000.0}) {
    const double gap = SmoothedMakespan(p.times, beta).value(x) - hard;
    EXPECT_LE(gap, prev_gap + 1e-12);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 1e-3);
}

TEST(Smoothed, GradientMatchesFiniteDifference) {
  const auto p = small_problem(11);
  SmoothedMakespan f(p.times, 8.0);
  Rng rng(12);
  const Matrix x = random_interior(3, 5, rng);
  const Matrix analytic = f.grad_x(x);
  const Matrix fd = diff::fd_gradient(
      [&f](const Matrix& xx) { return f.value(xx); }, x);
  EXPECT_TRUE(approx_equal(analytic, fd, 1e-5));
}

TEST(Smoothed, GradientWithSpeedupMatchesFiniteDifference) {
  const auto p = small_problem(13);
  SmoothedMakespan f(p.times, 8.0,
                     sim::SpeedupCurve::exponential_decay(0.6, 0.5));
  Rng rng(14);
  const Matrix x = random_interior(3, 5, rng);
  // Scale columns up so per-cluster counts exceed 1 (active zeta region).
  Matrix x2 = x;
  const Matrix analytic = f.grad_x(x2);
  const Matrix fd = diff::fd_gradient(
      [&f](const Matrix& xx) { return f.value(xx); }, x2);
  EXPECT_TRUE(approx_equal(analytic, fd, 1e-5));
}

TEST(Smoothed, ClusterWeightsAreSoftmax) {
  const auto p = small_problem(15);
  SmoothedMakespan f(p.times, 10.0);
  Rng rng(16);
  const Matrix x = random_interior(3, 5, rng);
  const auto w = f.cluster_weights(x);
  double total = 0.0;
  for (double wi : w) {
    EXPECT_GT(wi, 0.0);
    total += wi;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The busiest cluster carries the largest weight.
  const auto busy = f.busy_times(x);
  std::size_t argmax_busy = 0;
  std::size_t argmax_w = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (busy[i] > busy[argmax_busy]) argmax_busy = i;
    if (w[i] > w[argmax_w]) argmax_w = i;
  }
  EXPECT_EQ(argmax_busy, argmax_w);
}

TEST(Smoothed, HessiansMatchFiniteDifferenceOfGradient) {
  const auto p = small_problem(17, 2, 3);
  SmoothedMakespan f(p.times, 6.0);
  Rng rng(18);
  const Matrix x = random_interior(2, 3, rng);
  const Matrix hxx = f.hess_xx_exclusive(x);
  const double h = 1e-6;
  for (std::size_t s = 0; s < x.size(); ++s) {
    Matrix xp = x;
    Matrix xm = x;
    xp[s] += h;
    xm[s] -= h;
    const Matrix gp = f.grad_x(xp);
    const Matrix gm = f.grad_x(xm);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxx(r, s), (gp[r] - gm[r]) / (2.0 * h), 1e-4);
    }
  }
}

TEST(Smoothed, CrossHessianXtMatchesFiniteDifference) {
  const auto p = small_problem(19, 2, 3);
  Rng rng(20);
  const Matrix x = random_interior(2, 3, rng);
  SmoothedMakespan f(p.times, 6.0);
  const Matrix hxt = f.hess_xt_exclusive(x);
  const double h = 1e-6;
  for (std::size_t s = 0; s < p.times.size(); ++s) {
    Matrix tp = p.times;
    Matrix tm = p.times;
    tp[s] += h;
    tm[s] -= h;
    const Matrix gp = SmoothedMakespan(tp, 6.0).grad_x(x);
    const Matrix gm = SmoothedMakespan(tm, 6.0).grad_x(x);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxt(r, s), (gp[r] - gm[r]) / (2.0 * h), 1e-4);
    }
  }
}

TEST(Smoothed, HessianRequiresExclusiveExecution) {
  const auto p = small_problem(21);
  SmoothedMakespan f(p.times, 6.0,
                     sim::SpeedupCurve::exponential_decay(0.6, 0.5));
  EXPECT_THROW(f.hess_xx_exclusive(Matrix(3, 5, 0.2)), ContractError);
}

// -------------------------------------------------------------- barrier --

TEST(Barrier, ValueAddsLogBarrierToSmoothedCost) {
  const auto p = small_problem(23);
  BarrierConfig cfg;
  cfg.beta = 10.0;
  cfg.lambda = 0.1;
  BarrierObjective f(p, cfg);
  Rng rng(24);
  const Matrix x = random_interior(3, 5, rng);
  const double slack = f.reliability_slack(x);
  ASSERT_GT(slack, cfg.slack_epsilon);
  const double expected =
      SmoothedMakespan(p.times, cfg.beta).value(x) -
      cfg.lambda * std::log(slack);
  EXPECT_NEAR(f.value(x), expected, 1e-12);
}

TEST(Barrier, GradientMatchesFiniteDifference) {
  const auto p = small_problem(25);
  BarrierObjective f(p);
  Rng rng(26);
  const Matrix x = random_interior(3, 5, rng);
  const Matrix fd = diff::fd_gradient(
      [&f](const Matrix& xx) { return f.value(xx); }, x);
  EXPECT_TRUE(approx_equal(f.grad_x(x), fd, 1e-5));
}

TEST(Barrier, FiniteBelowDomainBoundary) {
  // An infeasible X must produce finite value and gradient (linear
  // extension region) so solvers can recover.
  auto p = small_problem(27);
  p.gamma = 0.999;  // unattainable
  BarrierObjective f(p);
  const Matrix x(3, 5, 1.0 / 3.0);
  EXPECT_TRUE(std::isfinite(f.value(x)));
  const Matrix g = f.grad_x(x);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_TRUE(std::isfinite(g[i]));
  }
}

TEST(Barrier, GradientPushesTowardReliableClustersNearBoundary) {
  // Close to the boundary, the barrier dominates and the gradient is more
  // negative for high-reliability entries (growth direction).
  auto p = small_problem(29);
  BarrierObjective f_loose(p.with_metrics(p.times, p.reliability), {});
  Rng rng(30);
  const Matrix x = random_interior(3, 5, rng);
  auto tight = p;
  tight.gamma = average_reliability(x, p.reliability) - 0.005;
  BarrierObjective f_tight(tight, {});
  // Barrier contribution per entry is -lambda a_ij / (N slack): the entry
  // with the max reliability receives the strongest pull.
  const Matrix g = f_tight.grad_x(x);
  const Matrix g_smooth = SmoothedMakespan(p.times, 20.0).grad_x(x);
  std::size_t max_a = 0;
  for (std::size_t i = 1; i < p.reliability.size(); ++i) {
    if (p.reliability[i] > p.reliability[max_a]) {
      max_a = i;
    }
  }
  EXPECT_LT(g[max_a] - g_smooth[max_a], 0.0);
}

TEST(Barrier, HessiansMatchFiniteDifferences) {
  const auto p = small_problem(31, 2, 3);
  BarrierConfig cfg;
  cfg.beta = 5.0;
  cfg.lambda = 0.2;
  BarrierObjective f(p, cfg);
  Rng rng(32);
  const Matrix x = random_interior(2, 3, rng);
  const double h = 1e-6;

  const Matrix hxx = f.hess_xx(x);
  for (std::size_t s = 0; s < x.size(); ++s) {
    Matrix xp = x;
    Matrix xm = x;
    xp[s] += h;
    xm[s] -= h;
    const Matrix gp = f.grad_x(xp);
    const Matrix gm = f.grad_x(xm);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxx(r, s), (gp[r] - gm[r]) / (2.0 * h), 1e-4)
          << "hxx(" << r << "," << s << ")";
    }
  }

  const Matrix hxa = f.hess_xa(x);
  for (std::size_t s = 0; s < x.size(); ++s) {
    Matrix ap = p.reliability;
    Matrix am = p.reliability;
    ap[s] += h;
    am[s] -= h;
    const Matrix gp =
        BarrierObjective(p.times, ap, p.gamma, cfg).grad_x(x);
    const Matrix gm =
        BarrierObjective(p.times, am, p.gamma, cfg).grad_x(x);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxa(r, s), (gp[r] - gm[r]) / (2.0 * h), 1e-4)
          << "hxa(" << r << "," << s << ")";
    }
  }

  const Matrix hxt = f.hess_xt(x);
  for (std::size_t s = 0; s < x.size(); ++s) {
    Matrix tp = p.times;
    Matrix tm = p.times;
    tp[s] += h;
    tm[s] -= h;
    const Matrix gp =
        BarrierObjective(tp, p.reliability, p.gamma, cfg).grad_x(x);
    const Matrix gm =
        BarrierObjective(tm, p.reliability, p.gamma, cfg).grad_x(x);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxt(r, s), (gp[r] - gm[r]) / (2.0 * h), 1e-4)
          << "hxt(" << r << "," << s << ")";
    }
  }
}

TEST(Barrier, SmallerLambdaTightensApproximation) {
  // As lambda -> 0 the barrier objective approaches the smoothed cost on
  // the strict interior of the feasible region.
  const auto p = small_problem(33);
  Rng rng(34);
  const Matrix x = random_interior(3, 5, rng);
  const double base = SmoothedMakespan(p.times, 20.0).value(x);
  double prev_gap = 1e18;
  for (double lambda : {1.0, 0.1, 0.01, 0.001}) {
    BarrierConfig cfg;
    cfg.beta = 20.0;  // match the reference smoothed cost above
    cfg.lambda = lambda;
    const double gap = std::abs(BarrierObjective(p, cfg).value(x) - base);
    EXPECT_LE(gap, prev_gap + 1e-12);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.01);
}

// -------------------------------------------------------------- penalty --

TEST(Penalty, ZeroWhenFeasible) {
  const auto p = small_problem(35);
  Rng rng(36);
  const Matrix x = random_interior(3, 5, rng);
  auto loose = p;
  loose.gamma = 0.0;
  HardPenaltyObjective f(loose, 10.0, 5.0);
  EXPECT_NEAR(f.value(x), SmoothedMakespan(p.times, 10.0).value(x), 1e-12);
}

TEST(Penalty, ActiveWhenViolated) {
  auto p = small_problem(37);
  p.gamma = 0.9999;
  Rng rng(38);
  const Matrix x = random_interior(3, 5, rng);
  HardPenaltyObjective f(p, 10.0, 5.0);
  const double violation = p.gamma - average_reliability(x, p.reliability);
  ASSERT_GT(violation, 0.0);
  EXPECT_NEAR(f.value(x),
              SmoothedMakespan(p.times, 10.0).value(x) + 5.0 * violation,
              1e-12);
}

TEST(Penalty, GradientMatchesFiniteDifferenceBothRegimes) {
  Rng rng(39);
  for (double gamma : {0.0, 0.9999}) {
    auto p = small_problem(40);
    p.gamma = gamma;
    HardPenaltyObjective f(p, 8.0, 3.0);
    const Matrix x = random_interior(3, 5, rng);
    const Matrix fd = diff::fd_gradient(
        [&f](const Matrix& xx) { return f.value(xx); }, x);
    EXPECT_TRUE(approx_equal(f.grad_x(x), fd, 1e-5)) << "gamma=" << gamma;
  }
}

TEST(Penalty, HessXaVanishesWhenFeasible) {
  // The §3.2 pathology the ablation demonstrates: no reliability gradient
  // information flows once the constraint is satisfied.
  auto p = small_problem(41);
  p.gamma = 0.0;
  HardPenaltyObjective f(p, 8.0, 3.0);
  Rng rng(42);
  const Matrix x = random_interior(3, 5, rng);
  const Matrix hxa = f.hess_xa(x);
  for (std::size_t i = 0; i < hxa.size(); ++i) {
    EXPECT_EQ(hxa[i], 0.0);
  }
}

TEST(LinearCost, GradientMatchesFiniteDifference) {
  const auto p = small_problem(43);
  LinearCostBarrierObjective f(p, 0.1);
  Rng rng(44);
  const Matrix x = random_interior(3, 5, rng);
  const Matrix fd = diff::fd_gradient(
      [&f](const Matrix& xx) { return f.value(xx); }, x);
  EXPECT_TRUE(approx_equal(f.grad_x(x), fd, 1e-5));
}

TEST(LinearCost, IndifferentToLoadBalance) {
  // The ablation-(1) failure mode: moving load between clusters does not
  // change the linear cost when per-task times are equal.
  Matrix t(2, 4, 1.0);
  Matrix a(2, 4, 0.9);
  LinearCostBarrierObjective f(t, a, 0.5, 0.1);
  const Matrix balanced = assignment_to_matrix({0, 1, 0, 1}, 2);
  const Matrix lopsided = assignment_to_matrix({0, 0, 0, 0}, 2);
  EXPECT_NEAR(f.value(balanced), f.value(lopsided), 1e-12);
  // ...whereas the smoothed max strongly prefers balance.
  SmoothedMakespan sm(t, 10.0);
  EXPECT_LT(sm.value(balanced), sm.value(lopsided) - 0.5);
}


// -------------------------------------------------------------- entropy --

TEST(Entropy, ValueAddsXLogX) {
  const auto p = small_problem(50);
  auto base = std::make_unique<BarrierObjective>(p);
  const double base_value = base->value(Matrix(3, 5, 1.0 / 3.0));
  EntropicObjective f(std::move(base), 0.5);
  const Matrix x(3, 5, 1.0 / 3.0);
  // 15 entries of (1/3) log(1/3).
  const double expected =
      base_value + 0.5 * 15.0 * (1.0 / 3.0) * std::log(1.0 / 3.0);
  EXPECT_NEAR(f.value(x), expected, 1e-12);
}

TEST(Entropy, GradientMatchesFiniteDifference) {
  const auto p = small_problem(51);
  EntropicObjective f(std::make_unique<BarrierObjective>(p), 0.2);
  Rng rng(52);
  const Matrix x = random_interior(3, 5, rng);
  const Matrix fd = diff::fd_gradient(
      [&f](const Matrix& xx) { return f.value(xx); }, x);
  EXPECT_TRUE(approx_equal(f.grad_x(x), fd, 1e-5));
}

TEST(Entropy, KktVariantHessianMatchesFiniteDifference) {
  const auto p = small_problem(53, 2, 3);
  EntropicKktObjective f(std::make_unique<BarrierObjective>(p), 0.2);
  Rng rng(54);
  const Matrix x = random_interior(2, 3, rng);
  const Matrix hxx = f.hess_xx(x);
  const double h = 1e-6;
  for (std::size_t s = 0; s < x.size(); ++s) {
    Matrix xp = x;
    Matrix xm = x;
    xp[s] += h;
    xm[s] -= h;
    const Matrix gp = f.grad_x(xp);
    const Matrix gm = f.grad_x(xm);
    for (std::size_t r = 0; r < x.size(); ++r) {
      EXPECT_NEAR(hxx(r, s), (gp[r] - gm[r]) / (2.0 * h), 2e-4);
    }
  }
}

TEST(Entropy, CrossBlocksUntouched) {
  const auto p = small_problem(55, 2, 3);
  BarrierObjective bare(p);
  EntropicKktObjective wrapped(std::make_unique<BarrierObjective>(p), 0.3);
  Rng rng(56);
  const Matrix x = random_interior(2, 3, rng);
  EXPECT_TRUE(approx_equal(wrapped.hess_xt(x), bare.hess_xt(x), 1e-12));
  EXPECT_TRUE(approx_equal(wrapped.hess_xa(x), bare.hess_xa(x), 1e-12));
}

TEST(Entropy, KeepsOptimumStrictlyInterior) {
  // Without entropy this instance commits every task to one cluster
  // (vertex solution, zero sensitivity); with entropy all entries stay
  // bounded away from the boundary.
  MatchingProblem p;
  p.times = Matrix{{0.5, 0.6, 0.4}, {2.0, 2.4, 1.9}};  // cluster 0 dominant
  p.reliability = Matrix(2, 3, 0.9);
  p.gamma = 0.5;
  EntropicObjective f(std::make_unique<BarrierObjective>(p), 0.1);
  const auto r = solve_mirror(f);
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    EXPECT_GT(r.x[i], 1e-6);
    EXPECT_LT(r.x[i], 1.0 - 1e-6);
  }
}

TEST(Entropy, RestoresNonZeroKktSensitivity) {
  // The degeneracy that motivated the module: at a (near-)vertex optimum
  // the bare KKT sensitivities vanish; the entropic ones do not.
  MatchingProblem p;
  p.times = Matrix{{0.5, 0.6, 0.4}, {2.0, 2.4, 1.9}};
  p.reliability = Matrix(2, 3, 0.9);
  p.gamma = 0.5;
  EntropicKktObjective f(std::make_unique<BarrierObjective>(p), 0.1);
  MirrorSolverConfig cfg;
  cfg.max_iterations = 5000;
  const auto r = solve_mirror(f, cfg);
  // A constant upstream would contract to zero regardless (columns of X
  // always sum to one), so use a varied one.
  Matrix upstream(2, 3);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = static_cast<double>(i + 1);
  }
  const auto vjp = diff::kkt_vjp(f, r.x, upstream);
  double norm = 0.0;
  for (std::size_t i = 0; i < vjp.grad_t.size(); ++i) {
    norm += vjp.grad_t[i] * vjp.grad_t[i];
  }
  EXPECT_GT(std::sqrt(norm), 1e-4);
}

TEST(Entropy, RejectsBadArguments) {
  const auto p = small_problem(57);
  EXPECT_THROW(EntropicObjective(nullptr, 0.1), ContractError);
  EXPECT_THROW(
      EntropicObjective(std::make_unique<BarrierObjective>(p), 0.0),
      ContractError);
}

// Property sweep: all three objectives' gradients vs FD on random sizes.
class ObjectiveGradientProperty : public ::testing::TestWithParam<int> {};

TEST_P(ObjectiveGradientProperty, AllObjectiveGradientsMatchFd) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 5);
  const std::size_t m = 2 + rng.uniform_index(3);
  const std::size_t n = 2 + rng.uniform_index(5);
  MatchingProblem p;
  p.times = random_times(m, n, rng);
  p.reliability = random_reliability(m, n, rng);
  p.gamma = rng.uniform(0.3, 0.7);
  const Matrix x = random_interior(m, n, rng);

  const BarrierObjective barrier(p);
  const HardPenaltyObjective penalty(p, 10.0, 2.0);
  const LinearCostBarrierObjective linear(p, 0.05);
  for (const ContinuousObjective* f :
       {static_cast<const ContinuousObjective*>(&barrier),
        static_cast<const ContinuousObjective*>(&penalty),
        static_cast<const ContinuousObjective*>(&linear)}) {
    const Matrix fd = diff::fd_gradient(
        [f](const Matrix& xx) { return f->value(xx); }, x);
    EXPECT_TRUE(approx_equal(f->grad_x(x), fd, 2e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, ObjectiveGradientProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mfcp::matching
