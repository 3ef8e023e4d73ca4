// Algorithm 1 of the paper: optimal matching by projected gradient descent.
//
//   repeat:  X <- X - η ∇_X F(X, T, A)
//            X(:, j) <- softmax(X(:, j))   for every task j
//
// The column softmax keeps every task's assignment weights on the simplex
// over clusters, i.e. the relaxed feasible set of problem (10).
#pragma once

#include <cstdint>
#include <string_view>

#include "matching/smooth_objective.hpp"

namespace mfcp::matching {

struct GdSolverConfig {
  std::size_t max_iterations = 400;
  double learning_rate = 0.5;
  /// Stop early when the iterate moves less than this (inf-norm).
  double tolerance = 1e-9;
};

/// Why a relaxed solve returned.
enum class StopReason : std::uint8_t {
  kConverged,  // residual below tolerance
  kCapped,     // iteration cap reached first
  kFellBack,   // the price-dual solve handed the problem to mirror
               // descent (`converged` reports that run)
};

[[nodiscard]] std::string_view to_string(StopReason reason) noexcept;

struct SolveResult {
  Matrix x;                  // relaxed optimal matching, columns on simplex
  double objective = 0.0;    // F at x
  std::size_t iterations = 0;
  bool converged = false;    // residual below tolerance
  /// Final convergence residual: the quantity each solver tests against
  /// its tolerance (mirror descent and the price dual: simplex
  /// stationarity residual; projected GD: inf-norm of the last iterate
  /// move).
  double residual = 0.0;
  StopReason stop = StopReason::kCapped;
};

/// Uniform relaxed start: every entry 1/M (center of the feasible set).
Matrix uniform_start(std::size_t num_clusters, std::size_t num_tasks);

/// Runs Algorithm 1 from the uniform start.
SolveResult solve_gd(const ContinuousObjective& objective,
                     const GdSolverConfig& config = {});

/// Runs Algorithm 1 from a caller-supplied start (columns need not be
/// normalized; the first projection fixes them).
SolveResult solve_gd_from(const ContinuousObjective& objective, Matrix x0,
                          const GdSolverConfig& config = {});

}  // namespace mfcp::matching
