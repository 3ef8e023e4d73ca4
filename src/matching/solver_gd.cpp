#include "matching/solver_gd.hpp"

#include "linalg/vector_ops.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kCapped:
      return "capped";
    case StopReason::kFellBack:
      return "fell_back";
  }
  return "?";
}

Matrix uniform_start(std::size_t num_clusters, std::size_t num_tasks) {
  MFCP_CHECK(num_clusters > 0 && num_tasks > 0, "empty problem");
  return Matrix(num_clusters, num_tasks,
                1.0 / static_cast<double>(num_clusters));
}

SolveResult solve_gd(const ContinuousObjective& objective,
                     const GdSolverConfig& config) {
  return solve_gd_from(
      objective,
      uniform_start(objective.num_clusters(), objective.num_tasks()), config);
}

SolveResult solve_gd_from(const ContinuousObjective& objective, Matrix x0,
                          const GdSolverConfig& config) {
  MFCP_CHECK(x0.rows() == objective.num_clusters() &&
                 x0.cols() == objective.num_tasks(),
             "start point shape mismatch");
  MFCP_CHECK(config.learning_rate > 0.0, "learning rate must be positive");

  SolveResult result;
  Matrix x = std::move(x0);
  softmax_columns_inplace(x);  // project the start onto the simplices

  // The literal Algorithm-1 update is not a descent method (the softmax
  // re-projection can move uphill), so we track and return the best
  // iterate seen — the natural anytime reading of the algorithm.
  Matrix best = x;
  double best_value = objective.value(x);

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    const Matrix grad = objective.grad_x(x);
    Matrix next = x;
    axpy(-config.learning_rate, grad, next);
    softmax_columns_inplace(next);  // line 4 of Algorithm 1

    double delta = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      delta = std::max(delta, std::abs(next[i] - x[i]));
    }
    x = std::move(next);
    const double value = objective.value(x);
    if (value < best_value) {
      best_value = value;
      best = x;
    }
    result.iterations = it + 1;
    result.residual = delta;
    if (delta < config.tolerance) {
      result.converged = true;
      result.stop = StopReason::kConverged;
      break;
    }
  }
  result.objective = best_value;
  result.x = std::move(best);
  return result;
}

}  // namespace mfcp::matching
