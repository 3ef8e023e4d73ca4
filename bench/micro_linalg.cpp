// Microbenchmarks for the dense linear algebra kernels that sit on the
// MFCP hot path (GEMM for predictor batches, LU for the KKT systems).
#include <benchmark/benchmark.h>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfcp;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal();
  }
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

void BM_MatmulTransposedVariants(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_tn(a, b));
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
}
BENCHMARK(BM_MatmulTransposedVariants)->Arg(32)->Arg(96);

void BM_LuFactorAndSolve(benchmark::State& state) {
  // KKT-system-shaped solves: factor once, back-substitute one RHS.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 4.0;
  }
  const Matrix rhs = random_matrix(n, 1, rng);
  for (auto _ : state) {
    LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(rhs));
  }
}
BENCHMARK(BM_LuFactorAndSolve)->Arg(20)->Arg(80)->Arg(160);

void BM_LuMultiRhs(benchmark::State& state) {
  // Full-Jacobian mode: one factorization, MN right-hand sides.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 4.0;
  }
  const Matrix rhs = random_matrix(n, n, rng);
  for (auto _ : state) {
    LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve_multi(rhs));
  }
}
BENCHMARK(BM_LuMultiRhs)->Arg(20)->Arg(60);

void BM_MatmulParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_parallel(pool, a, b));
  }
}
BENCHMARK(BM_MatmulParallel)->Arg(128);

}  // namespace
