// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mfcp {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal(0.0, scale);
  }
  return m;
}

// --------------------------------------------------------------- matrix --

TEST(Matrix, ConstructsWithFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m[i], 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), ContractError);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  const Matrix m = random_matrix(3, 5, rng);
  EXPECT_TRUE(approx_equal(m.transposed().transposed(), m));
}

TEST(Matrix, ReshapePreservesOrder) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix r = m.reshaped(3, 2);
  EXPECT_DOUBLE_EQ(r(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(r(2, 1), 6.0);
}

TEST(Matrix, ReshapeWrongCountThrows) {
  Matrix m(2, 3);
  EXPECT_THROW(m.reshaped(4, 2), ContractError);
}

TEST(Matrix, ColVectorAndSetCol) {
  Matrix m{{1, 2}, {3, 4}};
  const Matrix c1 = m.col_vector(1);
  EXPECT_DOUBLE_EQ(c1[0], 2.0);
  EXPECT_DOUBLE_EQ(c1[1], 4.0);
  Matrix v(2, 1);
  v[0] = 9.0;
  v[1] = 8.0;
  m.set_col(0, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  const Matrix s = a + b;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(s[i], 5.0);
  }
  const Matrix d = a - b;
  EXPECT_DOUBLE_EQ(d(0, 0), -3.0);
  const Matrix sc = a * 2.0;
  EXPECT_DOUBLE_EQ(sc(1, 1), 8.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, ContractError);
}

TEST(Matrix, ApproxEqualTolerance) {
  Matrix a{{1.0}};
  Matrix b{{1.0 + 1e-12}};
  EXPECT_TRUE(approx_equal(a, b, 1e-9));
  EXPECT_FALSE(approx_equal(a, b, 1e-15));
}

TEST(Matrix, RowAndColumnFactories) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  const Matrix col = Matrix::column(v);
  EXPECT_EQ(col.rows(), 3u);
  EXPECT_EQ(col.cols(), 1u);
  const Matrix row = Matrix::row(v);
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
}

// ----------------------------------------------------------- vector ops --

TEST(VectorOps, DotSumsElementwiseProducts) {
  Matrix a{{1, 2, 2}};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
}

TEST(VectorOps, LogSumExpBoundsMax) {
  // Theorem 1: max <= lse_beta <= max + log(n)/beta.
  const std::vector<double> xs = {1.0, 3.0, 2.0, -1.0};
  for (double beta : {0.5, 1.0, 5.0, 50.0}) {
    const double lse = log_sum_exp(xs, beta);
    EXPECT_GE(lse, 3.0);
    EXPECT_LE(lse, 3.0 + std::log(4.0) / beta + 1e-12);
  }
}

TEST(VectorOps, LogSumExpConvergesToMax) {
  const std::vector<double> xs = {0.3, 0.9, 0.5};
  EXPECT_NEAR(log_sum_exp(xs, 1e4), 0.9, 1e-3);
}

TEST(VectorOps, LogSumExpHandlesLargeValues) {
  const std::vector<double> xs = {1e4, 1e4 + 1.0};
  const double lse = log_sum_exp(xs, 1.0);
  EXPECT_TRUE(std::isfinite(lse));
  EXPECT_NEAR(lse, 1e4 + 1.0 + std::log1p(std::exp(-1.0)), 1e-9);
}

TEST(VectorOps, SoftmaxSumsToOne) {
  std::vector<double> xs = {0.1, 2.0, -1.0, 0.7};
  softmax_inplace(std::span<double>(xs));
  double total = 0.0;
  for (double x : xs) {
    EXPECT_GT(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(VectorOps, SoftmaxSharpensWithBeta) {
  std::vector<double> soft = {1.0, 2.0};
  std::vector<double> sharp = {1.0, 2.0};
  softmax_inplace(std::span<double>(soft), 1.0);
  softmax_inplace(std::span<double>(sharp), 10.0);
  EXPECT_GT(sharp[1], soft[1]);
}

TEST(VectorOps, SoftmaxColumnsMakesSimplexColumns) {
  Rng rng(3);
  Matrix m = random_matrix(4, 6, rng, 2.0);
  softmax_columns_inplace(m);
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double total = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_GT(m(r, c), 0.0);
      total += m(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(VectorOps, AxpyAccumulates) {
  Matrix x{{1, 2}};
  Matrix y{{10, 20}};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

// ----------------------------------------------------------------- blas --

TEST(Blas, MatmulKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, MatmulDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 2)), ContractError);
}

TEST(Blas, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  const Matrix a = random_matrix(4, 6, rng);
  const Matrix b = random_matrix(4, 3, rng);
  EXPECT_TRUE(approx_equal(matmul_tn(a, b), matmul(a.transposed(), b), 1e-9));
  const Matrix c = random_matrix(5, 6, rng);
  EXPECT_TRUE(approx_equal(matmul_nt(a, c), matmul(a, c.transposed()), 1e-9));
}

TEST(Blas, ParallelMatmulBitwiseEqualsSerial) {
  Rng rng(7);
  const Matrix a = random_matrix(37, 23, rng);
  const Matrix b = random_matrix(23, 31, rng);
  const Matrix serial = matmul(a, b);
  ThreadPool pool(4);
  const Matrix parallel = matmul_parallel(pool, a, b);
  ASSERT_TRUE(serial.same_shape(parallel));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);  // bitwise, not approx
  }
}

TEST(Blas, MatvecMatchesMatmul) {
  Rng rng(9);
  const Matrix a = random_matrix(5, 4, rng);
  const Matrix x = random_matrix(4, 1, rng);
  EXPECT_TRUE(approx_equal(matvec(a, x), matmul(a, x), 1e-12));
}

// Property sweep: matmul associativity-ish checks over random shapes.
class MatmulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatmulPropertyTest, IdentityIsNeutral) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 1 + rng.uniform_index(8);
  const std::size_t n = 1 + rng.uniform_index(8);
  const Matrix a = random_matrix(m, n, rng);
  EXPECT_TRUE(approx_equal(matmul(Matrix::identity(m), a), a, 1e-12));
  EXPECT_TRUE(approx_equal(matmul(a, Matrix::identity(n)), a, 1e-12));
}

TEST_P(MatmulPropertyTest, DistributesOverAddition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  const std::size_t m = 1 + rng.uniform_index(6);
  const std::size_t k = 1 + rng.uniform_index(6);
  const std::size_t n = 1 + rng.uniform_index(6);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c = random_matrix(k, n, rng);
  EXPECT_TRUE(approx_equal(matmul(a, b + c), matmul(a, b) + matmul(a, c),
                           1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulPropertyTest,
                         ::testing::Range(0, 10));

// ------------------------------------------------------------------- lu --

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2, 1}, {1, 3}};
  Matrix b{{3}, {5}};
  const Matrix x = LuFactorization(a).solve(b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(LuFactorization{a}, SingularMatrixError);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, ContractError);
}

class LuPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuPropertyTest, SolveThenMultiplyRecoversRhs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t n = 1 + rng.uniform_index(20);
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 2.0;  // keep well away from singular
  }
  const Matrix b = random_matrix(n, 1, rng);
  const Matrix x = LuFactorization(a).solve(b);
  EXPECT_TRUE(approx_equal(matmul(a, x), b, 1e-8));
}

TEST_P(LuPropertyTest, MultiRhsMatchesColumnwiseSolve) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const std::size_t n = 2 + rng.uniform_index(10);
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 2.0;
  }
  const Matrix b = random_matrix(n, 3, rng);
  LuFactorization lu(a);
  const Matrix x = lu.solve_multi(b);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(approx_equal(x.col_vector(c), lu.solve(b.col_vector(c)),
                             1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, LuPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace mfcp
