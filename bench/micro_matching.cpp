// Microbenchmarks for the matching solvers across problem scale: the
// per-iteration objective/gradient, the relaxed solvers, the exact
// branch-and-bound, and the rounding pipeline. Complexity reference:
// Eq. (21) — O(K1 * MN) for the inner solve.
#include <benchmark/benchmark.h>

#include <memory>

#include "matching/barrier.hpp"
#include "matching/entropy.hpp"
#include "matching/rounding.hpp"
#include "matching/solver_dual.hpp"
#include "matching/solver_exact.hpp"
#include "matching/solver_gd.hpp"
#include "matching/solver_mirror.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfcp;
using namespace mfcp::matching;

MatchingProblem make_problem(std::size_t m, std::size_t n,
                             std::uint64_t seed = 7) {
  Rng rng(seed);
  MatchingProblem p;
  p.times = Matrix(m, n);
  p.reliability = Matrix(m, n);
  for (std::size_t i = 0; i < p.times.size(); ++i) {
    p.times[i] = rng.uniform(0.3, 3.0);
    p.reliability[i] = rng.uniform(0.55, 0.98);
  }
  p.gamma = 0.7;
  return p;
}

void BM_ObjectiveGradient(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_problem(m, n);
  BarrierObjective f(p);
  const Matrix x = uniform_start(m, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.grad_x(x));
  }
}
BENCHMARK(BM_ObjectiveGradient)->Args({3, 5})->Args({3, 25})->Args({8, 50});

void BM_MirrorSolve(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_problem(m, n);
  BarrierObjective f(p);
  MirrorSolverConfig cfg;
  cfg.max_iterations = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_mirror(f, cfg));
  }
}
BENCHMARK(BM_MirrorSolve)->Args({3, 5})->Args({3, 25})->Args({8, 50});

void BM_PriceDualSolve(benchmark::State& state) {
  // The deploy objective (barrier + entropy, the engine's β and τ) solved
  // to tolerance by Newton on its M + 1 prices.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_problem(m, n);
  const EntropicObjective f(
      std::make_unique<BarrierObjective>(
          p, BarrierConfig{.beta = 8.0, .lambda = 0.1, .slack_epsilon = 1e-3}),
      0.1);
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto r = solve_price_dual(f);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["newton_iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_PriceDualSolve)->Args({3, 5})->Args({3, 25})->Args({8, 50});

void BM_AlgorithmOneSolve(benchmark::State& state) {
  // The paper-literal projected-GD solver, for comparison with mirror
  // descent at equal iteration budget.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_problem(m, n);
  BarrierObjective f(p);
  GdSolverConfig cfg;
  cfg.max_iterations = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_gd(f, cfg));
  }
}
BENCHMARK(BM_AlgorithmOneSolve)->Args({3, 5})->Args({3, 25});

void BM_ExactBranchAndBound(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_problem(m, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_exact(p));
  }
}
BENCHMARK(BM_ExactBranchAndBound)
    ->Args({3, 5})
    ->Args({3, 15})
    ->Args({3, 25})
    ->Args({4, 12});

void BM_ExactEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(3, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_enumeration(p));
  }
}
BENCHMARK(BM_ExactEnumeration)->Arg(5)->Arg(9);

void BM_GreedyLpt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(3, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_greedy(p));
  }
}
BENCHMARK(BM_GreedyLpt)->Arg(5)->Arg(25)->Arg(100);

void BM_RoundAndRepair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(3, n);
  BarrierObjective f(p);
  MirrorSolverConfig cfg;
  cfg.max_iterations = 300;
  const auto relaxed = solve_mirror(f, cfg);
  for (auto _ : state) {
    auto a = round_with_repair(relaxed.x, p);
    benchmark::DoNotOptimize(improve_local_search(a, p));
  }
}
BENCHMARK(BM_RoundAndRepair)->Arg(5)->Arg(25);

}  // namespace
