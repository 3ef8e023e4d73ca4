// Tests for the QR factorization, ridge regression, and the linear
// predictor baseline (the Fig. 2 predictor class).
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "mfcp/linear_model.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mfcp {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal();
  }
  return m;
}

// ------------------------------------------------------------------- QR --

TEST(Qr, LeastSquaresSolvesSquareSystemExactly) {
  Rng rng(4);
  Matrix a = random_matrix(5, 5, rng);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, i) += 3.0;
  }
  const Matrix x_true = random_matrix(5, 1, rng);
  const Matrix b = matmul(a, x_true);
  const Matrix x = QrFactorization(a).solve_least_squares(b);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-8));
}

TEST(Qr, LeastSquaresResidualIsOrthogonalToColumnSpace) {
  Rng rng(5);
  const Matrix a = random_matrix(10, 3, rng);
  const Matrix b = random_matrix(10, 1, rng);
  const Matrix x = QrFactorization(a).solve_least_squares(b);
  const Matrix residual = matmul(a, x) - b;
  const Matrix atr = matmul_tn(a, residual);
  for (std::size_t i = 0; i < atr.size(); ++i) {
    EXPECT_NEAR(atr[i], 0.0, 1e-9);
  }
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // collinear
  }
  QrFactorization qr(a);
  EXPECT_TRUE(qr.rank_deficient(1e-9));
  EXPECT_THROW(qr.solve_least_squares(Matrix(4, 1, 1.0)), ContractError);
}

TEST(Qr, RejectsWideMatrices) {
  EXPECT_THROW(QrFactorization(Matrix(2, 5, 1.0)), ContractError);
}

// ---------------------------------------------------------------- ridge --

TEST(Ridge, ZeroPenaltyMatchesLeastSquares) {
  Rng rng(6);
  const Matrix x = random_matrix(12, 3, rng);
  const Matrix y = random_matrix(12, 1, rng);
  const Matrix w0 = ridge_regression(x, y, 0.0);
  const Matrix wls = QrFactorization(x).solve_least_squares(y);
  EXPECT_TRUE(approx_equal(w0, wls, 1e-8));
}

TEST(Ridge, PenaltyShrinksWeights) {
  Rng rng(7);
  const Matrix x = random_matrix(20, 4, rng);
  Matrix y(20, 1);
  for (std::size_t i = 0; i < 20; ++i) {
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 2) + rng.normal(0.0, 0.1);
  }
  double prev_norm = 1e18;
  for (double lambda : {0.0, 1.0, 10.0, 100.0}) {
    const Matrix w = ridge_regression(x, y, lambda);
    double norm = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      norm += w[i] * w[i];
    }
    EXPECT_LT(norm, prev_norm + 1e-12);
    prev_norm = norm;
  }
}

TEST(Ridge, HandlesCollinearFeaturesWithPenalty) {
  Matrix x(6, 2);
  Matrix y(6, 1);
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = 2.0 * static_cast<double>(i);  // collinear
    y[i] = static_cast<double>(i);
  }
  EXPECT_NO_THROW(ridge_regression(x, y, 1e-3));
}

// --------------------------------------------------------- linear model --

sim::Dataset synthetic_dataset(std::size_t n = 30) {
  sim::Dataset d;
  d.features = Matrix(n, 2);
  d.times = Matrix(2, n);
  d.reliability = Matrix(2, n);
  d.true_times = Matrix(2, n);
  d.true_reliability = Matrix(2, n);
  d.tasks.resize(n);
  Rng rng(8);
  for (std::size_t i = 0; i < n; ++i) {
    d.features(i, 0) = rng.uniform(0.0, 2.0);
    d.features(i, 1) = rng.uniform(0.0, 1.0);
    // Cluster 0 exactly linear; cluster 1 nonlinear.
    d.times(0, i) = 1.0 + 2.0 * d.features(i, 0) + 0.5 * d.features(i, 1);
    d.times(1, i) = 0.5 * std::exp(1.2 * d.features(i, 0));
    d.reliability(0, i) = 0.9;
    d.reliability(1, i) = 0.8;
    d.true_times(0, i) = d.times(0, i);
    d.true_times(1, i) = d.times(1, i);
    d.true_reliability(0, i) = 0.9;
    d.true_reliability(1, i) = 0.8;
  }
  return d;
}

TEST(LinearModel, RecoversExactlyLinearLaw) {
  const auto data = synthetic_dataset();
  core::LinearPlatformModel model(data);
  const Matrix t_hat = model.predict_time_matrix(data.features);
  for (std::size_t j = 0; j < data.num_tasks(); ++j) {
    EXPECT_NEAR(t_hat(0, j), data.times(0, j), 0.05);
  }
}

TEST(LinearModel, UnderfitsNonlinearLaw) {
  const auto data = synthetic_dataset();
  core::LinearPlatformModel model(data);
  const Matrix t_hat = model.predict_time_matrix(data.features);
  double max_err = 0.0;
  for (std::size_t j = 0; j < data.num_tasks(); ++j) {
    max_err = std::max(max_err,
                       std::abs(t_hat(1, j) - data.times(1, j)));
  }
  EXPECT_GT(max_err, 0.3);  // the Fig. 2 systematic error
}

TEST(LinearModel, PredictedTimesArePositive) {
  const auto data = synthetic_dataset();
  core::LinearPlatformModel model(data);
  const Matrix t = model.predict_time_matrix(data.features);
  for (std::size_t k = 0; k < t.size(); ++k) {
    EXPECT_GT(t[k], 0.0);
  }
}

TEST(LinearModel, WeightsChangeTheFit) {
  const auto data = synthetic_dataset();
  core::LinearPlatformModel uniform(data);
  Matrix weights(2, data.num_tasks(), 1.0);
  // Emphasize the small-z half for cluster 1.
  for (std::size_t j = 0; j < data.num_tasks(); ++j) {
    weights(1, j) = data.features(j, 0) < 1.0 ? 1.0 : 0.05;
  }
  core::LinearPlatformModel weighted(data, weights);
  const Matrix tu = uniform.predict_time_matrix(data.features);
  const Matrix tw = weighted.predict_time_matrix(data.features);
  // The weighted fit tracks the emphasized region more closely.
  double err_u = 0.0;
  double err_w = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < data.num_tasks(); ++j) {
    if (data.features(j, 0) < 1.0) {
      err_u += std::abs(tu(1, j) - data.times(1, j));
      err_w += std::abs(tw(1, j) - data.times(1, j));
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_LT(err_w, err_u);
}

TEST(LinearModel, RejectsUnderdeterminedFit) {
  auto data = synthetic_dataset(2);  // fewer samples than features+1
  EXPECT_THROW(core::LinearPlatformModel{data}, ContractError);
}

TEST(LinearModel, RejectsBadWeightShape) {
  const auto data = synthetic_dataset();
  const Matrix weights(3, 4, 1.0);
  EXPECT_THROW(core::LinearPlatformModel(data, weights), ContractError);
}

// Property sweep: QR least squares equals normal-equation solution for
// well-conditioned random systems.
class QrProperty : public ::testing::TestWithParam<int> {};

TEST_P(QrProperty, MatchesNormalEquations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 17);
  const std::size_t s = 6 + rng.uniform_index(10);
  const std::size_t f = 1 + rng.uniform_index(4);
  const Matrix x = random_matrix(s, f, rng);
  const Matrix y = random_matrix(s, 1, rng);
  const Matrix w_qr = QrFactorization(x).solve_least_squares(y);
  // Normal equations: (X^T X) w = X^T y.
  const Matrix xtx = matmul_tn(x, x);
  const Matrix xty = matmul_tn(x, y);
  const Matrix w_ne = LuFactorization(xtx).solve(xty);
  EXPECT_TRUE(approx_equal(w_qr, w_ne, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, QrProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace mfcp
