#include "matching/solver_mirror.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "matching/detail/solve_common.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace mfcp::matching {

double stationarity_residual(const ContinuousObjective& objective,
                             const Matrix& x, double floor) {
  const Matrix g = objective.grad_x(x);
  double residual = 0.0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    // At an interior stationary point the gradient is constant over the
    // column support; the weighted mean recovers that constant.
    double mean = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      mean += x(i, j) * g(i, j);
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) > floor) {
        residual = std::max(residual, std::abs(g(i, j) - mean));
      }
    }
  }
  return residual;
}

SolveResult solve_mirror(const ContinuousObjective& objective,
                         const MirrorSolverConfig& config) {
  return solve_mirror_from(
      objective,
      uniform_start(objective.num_clusters(), objective.num_tasks()), config);
}

SolveResult solve_mirror_from(const ContinuousObjective& objective, Matrix x0,
                              const MirrorSolverConfig& config) {
  SolveResult result = detail::mirror_descent(objective, std::move(x0), config);
  detail::record_solve(result);
  return result;
}

namespace detail {

SolveResult mirror_descent(const ContinuousObjective& objective, Matrix x0,
                           const MirrorSolverConfig& config) {
  MFCP_CHECK(x0.rows() == objective.num_clusters() &&
                 x0.cols() == objective.num_tasks(),
             "start point shape mismatch");
  MFCP_CHECK(config.learning_rate > 0.0, "learning rate must be positive");
  MFCP_CHECK(config.floor > 0.0, "floor must be positive");

  Matrix x = std::move(x0);
  // Normalize the start onto the simplices (plain normalization — the
  // start is expected to be nonnegative, e.g. uniform).
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double total = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      x(i, j) = std::max(x(i, j), config.floor);
      total += x(i, j);
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      x(i, j) /= total;
    }
  }

  // Applies one exponentiated-gradient step of size eta in a numerically
  // safe form (subtract the column-min exponent before exponentiation).
  const auto step_with = [&config](const Matrix& from, const Matrix& g,
                                   double eta) {
    Matrix next = from;
    for (std::size_t j = 0; j < next.cols(); ++j) {
      double min_exp = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < next.rows(); ++i) {
        min_exp = std::min(min_exp, eta * g(i, j));
      }
      double total = 0.0;
      for (std::size_t i = 0; i < next.rows(); ++i) {
        const double factor = std::exp(-(eta * g(i, j) - min_exp));
        next(i, j) = std::max(next(i, j) * factor, config.floor);
        total += next(i, j);
      }
      for (std::size_t i = 0; i < next.rows(); ++i) {
        next(i, j) /= total;
      }
    }
    return next;
  };

  SolveResult result;
  double value = objective.value(x);
  double eta = config.learning_rate;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    const Matrix g = objective.grad_x(x);
    // Backtracking: sharp beta values make the landscape stiff (curvature
    // ~ beta * t^2), so a fixed step oscillates. Halve until the step is a
    // descent step, and cautiously re-grow afterwards.
    Matrix next = step_with(x, g, eta);
    double next_value = objective.value(next);
    int halvings = 0;
    while (next_value > value - 1e-14 && halvings < 30) {
      eta *= 0.5;
      ++halvings;
      next = step_with(x, g, eta);
      next_value = objective.value(next);
    }
    x = std::move(next);
    value = next_value;
    if (halvings == 0) {
      eta = std::min(eta * 1.25, config.learning_rate);
    }
    result.iterations = it + 1;
    // Checking the residual every iteration would double the gradient
    // evaluations; every 8th is enough for a stopping test.
    if ((it & 7u) == 7u) {
      result.residual = stationarity_residual(objective, x, 1e-6);
      if (result.residual < config.tolerance) {
        result.converged = true;
        result.stop = StopReason::kConverged;
        break;
      }
    }
  }
  if (!result.converged) {
    result.residual = stationarity_residual(objective, x, 1e-6);
    MFCP_LOG(kDebug) << "mirror descent hit the iteration cap ("
                     << config.max_iterations << "), residual "
                     << result.residual;
  }
  result.objective = objective.value(x);
  result.x = std::move(x);
  return result;
}

namespace {

struct SolverMetrics {
  obs::Counter* solves = nullptr;
  obs::Counter* capped = nullptr;
  std::array<obs::Counter*, 3> stops{};  // indexed by StopReason
  obs::Histogram* iterations = nullptr;
  obs::Gauge* residual = nullptr;
};

/// Handles for the installed default registry, or null when there is
/// none. Registration takes the registry's mutex, so each thread resolves
/// once per (registry, install) and keeps the pointers.
const SolverMetrics* solver_metrics() {
  thread_local obs::MetricsRegistry* cached_registry = nullptr;
  thread_local std::uint64_t cached_epoch = 0;
  thread_local SolverMetrics cached;
  const std::uint64_t epoch = obs::default_registry_epoch();
  obs::MetricsRegistry* reg = obs::default_registry();
  if (reg == nullptr) {
    return nullptr;
  }
  if (reg != cached_registry || epoch != cached_epoch) {
    cached.solves = &reg->counter("mfcp_matching_solves_total");
    cached.capped = &reg->counter("mfcp_matching_solver_capped_total");
    for (const StopReason reason :
         {StopReason::kConverged, StopReason::kCapped, StopReason::kFellBack}) {
      cached.stops[static_cast<std::size_t>(reason)] =
          &reg->counter("mfcp_matching_solver_stops_total{reason=\"" +
                        std::string(to_string(reason)) + "\"}");
    }
    cached.iterations = &reg->histogram("mfcp_matching_solver_iterations",
                                        obs::default_iteration_bounds());
    cached.residual = &reg->gauge("mfcp_matching_solver_residual");
    cached_registry = reg;
    cached_epoch = epoch;
  }
  return &cached;
}

}  // namespace

void record_solve(const SolveResult& result) {
  // The solvers sit below the engine and cannot be handed a registry per
  // call without threading a pointer through every trainer, so they
  // report to the process-wide one.
  const SolverMetrics* m = solver_metrics();
  if (m == nullptr) {
    return;
  }
  m->solves->add(1);
  m->stops[static_cast<std::size_t>(result.stop)]->add(1);
  if (!result.converged) {
    m->capped->add(1);
  }
  m->iterations->observe(static_cast<double>(result.iterations));
  m->residual->set(result.residual);
}

}  // namespace detail

}  // namespace mfcp::matching
