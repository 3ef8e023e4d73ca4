// Gradient-correctness tests for the autograd engine: every op is checked
// against central finite differences, plus graph-mechanics tests (seeded
// backward, accumulation, zeroing, diamond-shaped graphs).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "linalg/vector_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mfcp::autograd {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal(0.0, scale);
  }
  return m;
}

/// Checks d(scalar fn)/d(input) against central differences at `at`.
/// `build` maps a leaf Variable to a 1x1 output Variable.
void expect_gradient_matches_fd(
    const std::function<Variable(const Variable&)>& build, const Matrix& at,
    double tol = 1e-6, double h = 1e-6) {
  Variable leaf(at, /*requires_grad=*/true);
  Variable out = build(leaf);
  ASSERT_EQ(out.value().size(), 1u) << "harness expects scalar outputs";
  out.backward();
  const Matrix& analytic = leaf.grad();
  ASSERT_TRUE(analytic.same_shape(at));

  Matrix point = at;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double saved = point[i];
    point[i] = saved + h;
    const double fp = build(Variable(point, false)).value()[0];
    point[i] = saved - h;
    const double fm = build(Variable(point, false)).value()[0];
    point[i] = saved;
    const double fd = (fp - fm) / (2.0 * h);
    EXPECT_NEAR(analytic[i], fd, tol) << "component " << i;
  }
}

TEST(Autograd, AddGradient) {
  Rng rng(1);
  const Matrix a = random_matrix(3, 2, rng);
  const Matrix b = random_matrix(3, 2, rng);
  expect_gradient_matches_fd(
      [&b](const Variable& x) {
        return sum_all(add(x, Variable(b, false)));
      },
      a);
}

TEST(Autograd, MulGradient) {
  Rng rng(3);
  const Matrix a = random_matrix(3, 3, rng);
  const Matrix b = random_matrix(3, 3, rng);
  expect_gradient_matches_fd(
      [&b](const Variable& x) {
        return sum_all(mul(x, Variable(b, false)));
      },
      a);
}

TEST(Autograd, ScaleGradient) {
  Rng rng(4);
  const Matrix a = random_matrix(2, 4, rng);
  expect_gradient_matches_fd(
      [](const Variable& x) { return sum_all(scale(x, -2.5)); }, a);
}

TEST(Autograd, MatmulGradientLeft) {
  Rng rng(5);
  const Matrix a = random_matrix(3, 4, rng);
  const Matrix b = random_matrix(4, 2, rng);
  expect_gradient_matches_fd(
      [&b](const Variable& x) {
        return sum_all(matmul(x, Variable(b, false)));
      },
      a, 1e-5);
}

TEST(Autograd, MatmulGradientRight) {
  Rng rng(6);
  const Matrix a = random_matrix(3, 4, rng);
  const Matrix b = random_matrix(4, 2, rng);
  expect_gradient_matches_fd(
      [&a](const Variable& x) {
        return sum_all(matmul(Variable(a, false), x));
      },
      b, 1e-5);
}

TEST(Autograd, TransposeGradient) {
  Rng rng(7);
  const Matrix a = random_matrix(2, 5, rng);
  const Matrix w = random_matrix(2, 5, rng);
  expect_gradient_matches_fd(
      [&w](const Variable& x) {
        return sum_all(mul(transpose(x), Variable(w.transposed(), false)));
      },
      a);
}

TEST(Autograd, AddRowBroadcastGradient) {
  Rng rng(8);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix bias = random_matrix(1, 3, rng);
  // gradient w.r.t. the broadcast bias: sums over rows.
  expect_gradient_matches_fd(
      [&a](const Variable& b) {
        Variable act(a, false);
        return sum_all(mul(add_row_broadcast(act, b),
                           add_row_broadcast(act, b)));
      },
      bias, 1e-5);
}

TEST(Autograd, ReluGradient) {
  // Keep values away from the kink at 0 for a clean FD comparison.
  Matrix a{{-1.5, 2.0}, {0.7, -0.3}};
  expect_gradient_matches_fd(
      [](const Variable& x) { return sum_all(mul(relu(x), relu(x))); }, a);
}

TEST(Autograd, SigmoidGradient) {
  Rng rng(10);
  const Matrix a = random_matrix(2, 4, rng, 2.0);
  expect_gradient_matches_fd(
      [](const Variable& x) { return sum_all(sigmoid(x)); }, a, 1e-6);
}

TEST(Autograd, SigmoidStableForLargeInputs) {
  Matrix a{{500.0, -500.0}};
  Variable v(a, true);
  Variable s = sigmoid(v);
  EXPECT_NEAR(s.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(s.value()[1], 0.0, 1e-12);
  sum_all(s).backward();
  EXPECT_TRUE(std::isfinite(v.grad()[0]));
}

TEST(Autograd, SoftplusGradient) {
  Rng rng(11);
  const Matrix a = random_matrix(2, 3, rng, 3.0);
  expect_gradient_matches_fd(
      [](const Variable& x) { return sum_all(softplus(x)); }, a, 1e-6);
}

TEST(Autograd, SoftplusStableForExtremeInputs) {
  Matrix a{{800.0, -800.0}};
  Variable v(a, true);
  Variable s = softplus(v);
  EXPECT_NEAR(s.value()[0], 800.0, 1e-9);
  EXPECT_NEAR(s.value()[1], 0.0, 1e-9);
  sum_all(s).backward();
  EXPECT_NEAR(v.grad()[0], 1.0, 1e-9);
  EXPECT_NEAR(v.grad()[1], 0.0, 1e-9);
}

TEST(Autograd, MseLossGradient) {
  Rng rng(13);
  const Matrix pred = random_matrix(5, 1, rng);
  const Matrix target = random_matrix(5, 1, rng);
  expect_gradient_matches_fd(
      [&target](const Variable& x) { return mse_loss(x, target); }, pred,
      1e-6);
}

TEST(Autograd, MseOfExactPredictionIsZero) {
  Matrix t{{1.0}, {2.0}};
  Variable p(t, true);
  auto loss = mse_loss(p, t);
  EXPECT_DOUBLE_EQ(loss.value()[0], 0.0);
}

TEST(Autograd, ChainedCompositeGradient) {
  // A small MLP-shaped composite: sum(sigmoid(x W^T + b) v).
  Rng rng(14);
  const Matrix x = random_matrix(3, 4, rng);
  const Matrix w = random_matrix(2, 4, rng);
  const Matrix b = random_matrix(1, 2, rng);
  const Matrix v = random_matrix(3, 2, rng);
  expect_gradient_matches_fd(
      [&](const Variable& wx) {
        Variable xin(x, false);
        Variable bias(b, false);
        Variable mixer(v, false);
        auto h = sigmoid(add_row_broadcast(matmul(xin, transpose(wx)), bias));
        return sum_all(mul(h, mixer));
      },
      w, 1e-5);
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  // y = sum(x*x + x): grad = 2x + 1 — requires summing both branches.
  Matrix a{{1.0, -2.0}};
  Variable x(a, true);
  auto y = sum_all(add(mul(x, x), x));
  y.backward();
  EXPECT_NEAR(x.grad()[0], 3.0, 1e-12);
  EXPECT_NEAR(x.grad()[1], -3.0, 1e-12);
}

TEST(Autograd, SeededBackwardInjectsUpstreamGradient) {
  // out = 2x; backward with seed g gives dL/dx = 2g — the mechanism MFCP
  // uses to inject the matching layer's dL/dt̂ (Eq. 7).
  Matrix a{{1.0}, {2.0}, {3.0}};
  Variable x(a, true);
  auto out = scale(x, 2.0);
  Matrix seed{{0.5}, {-1.0}, {2.0}};
  out.backward(seed);
  EXPECT_NEAR(x.grad()[0], 1.0, 1e-12);
  EXPECT_NEAR(x.grad()[1], -2.0, 1e-12);
  EXPECT_NEAR(x.grad()[2], 4.0, 1e-12);
}

TEST(Autograd, SeedShapeMismatchThrows) {
  Variable x(Matrix(2, 2), true);
  auto out = scale(x, 1.0);
  EXPECT_THROW(out.backward(Matrix(3, 1)), ContractError);
}

TEST(Autograd, SeedlessBackwardRequiresScalar) {
  Variable x(Matrix(2, 2), true);
  auto out = scale(x, 1.0);
  EXPECT_THROW(out.backward(), ContractError);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  Matrix a{{1.0}};
  Variable x(a, true);
  auto y1 = scale(x, 3.0);
  y1.backward();
  auto y2 = scale(x, 4.0);
  y2.backward();
  EXPECT_NEAR(x.grad()[0], 7.0, 1e-12);
}

TEST(Autograd, ZeroGradClearsLeaf) {
  Variable x(Matrix{{2.0}}, true);
  scale(x, 5.0).backward();
  EXPECT_FALSE(x.grad().empty());
  x.zero_grad();
  EXPECT_TRUE(x.grad().empty());
}

TEST(Autograd, ConstantLeavesGetNoGradient) {
  // Parents that require no gradient get none: a Linear layer's input
  // features, the bias-free constants below, and the leaf under a root
  // that requires no gradient. Trainable leaves still get theirs.
  Variable x(Matrix{{1.0, -2.0}, {0.5, 3.0}}, false);
  Variable w(Matrix{{0.3, -0.7}}, true);
  Variable b(Matrix{{0.1}}, true);
  Variable c(Matrix{{2.0}, {-1.0}}, false);
  auto h = add_row_broadcast(matmul(x, transpose(w)), b);
  auto out = sum_all(add(mul(h, c), scale(add(c, c), -1.0)));
  out.backward();
  EXPECT_TRUE(x.grad().empty());
  EXPECT_TRUE(c.grad().empty());
  ASSERT_FALSE(w.grad().empty());
  // d/dw = sum_r c_r x_r = 2 (1, -2) - (0.5, 3); d/db = sum_r c_r = 1.
  EXPECT_NEAR(w.grad()[0], 1.5, 1e-12);
  EXPECT_NEAR(w.grad()[1], -7.0, 1e-12);
  EXPECT_NEAR(b.grad()[0], 1.0, 1e-12);

  Variable leaf(Matrix{{1.0, 2.0}}, false);
  sum_all(relu(leaf)).backward();
  EXPECT_TRUE(leaf.grad().empty());
}

TEST(Autograd, MutableValueOnlyForLeaves) {
  Variable x(Matrix{{1.0}}, true);
  EXPECT_NO_THROW(static_cast<void>(x.mutable_value()));
  auto y = scale(x, 2.0);
  EXPECT_THROW(static_cast<void>(y.mutable_value()), ContractError);
}

TEST(Autograd, TopologicalOrderVisitsParentsFirst) {
  Variable x(Matrix{{1.0}}, true);
  auto a = scale(x, 2.0);
  auto b = mul(a, a);
  const auto order = topological_order(b.node());
  // x before a before b.
  std::size_t ix = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == x.node()) ix = i;
    if (order[i] == a.node()) ia = i;
    if (order[i] == b.node()) ib = i;
  }
  EXPECT_LT(ix, ia);
  EXPECT_LT(ia, ib);
}

// Property sweep: random composite graphs validated against FD.
class AutogradPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AutogradPropertyTest, RandomMlpLikeGraphGradient) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 99);
  const std::size_t batch = 1 + rng.uniform_index(4);
  const std::size_t in = 1 + rng.uniform_index(5);
  const std::size_t hidden = 1 + rng.uniform_index(5);
  const Matrix x = random_matrix(batch, in, rng);
  const Matrix w1 = random_matrix(hidden, in, rng, 0.7);
  const Matrix b1 = random_matrix(1, hidden, rng, 0.2);
  const Matrix w2 = random_matrix(1, hidden, rng, 0.7);
  expect_gradient_matches_fd(
      [&](const Variable& wx) {
        Variable xin(x, false);
        Variable bias(b1, false);
        Variable head(w2, false);
        auto h = sigmoid(add_row_broadcast(matmul(xin, transpose(wx)), bias));
        return sum_all(matmul(h, transpose(head)));
      },
      w1, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, AutogradPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace mfcp::autograd
