#include "matching/solver_exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "matching/objective.hpp"
#include "support/log.hpp"
#include "support/check.hpp"

namespace mfcp::matching {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double assignment_makespan(const Assignment& assignment,
                           const MatchingProblem& problem) {
  return makespan(assignment, problem.times, problem.speedup);
}

/// Depth-first branch-and-bound state.
class BranchAndBound {
 public:
  BranchAndBound(const MatchingProblem& problem,
                 const ExactSolverConfig& config)
      : problem_(problem),
        config_(config),
        m_(problem.num_clusters()),
        n_(problem.num_tasks()),
        zeta_floor_(problem.speedup.is_constant()
                        ? 1.0
                        : problem.speedup.value(1e9)),
        loads_(m_, 0.0),
        counts_(m_, 0),
        current_(n_, -1) {
    // Assign long tasks first: their placement constrains the makespan
    // most, so bad branches are pruned near the root.
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), 0);
    std::vector<double> min_time(n_, 0.0);
    min_rest_.assign(n_ + 1, 0.0);
    max_rel_rest_.assign(n_ + 1, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      double tmin = kInf;
      for (std::size_t i = 0; i < m_; ++i) {
        tmin = std::min(tmin, problem_.times(i, j));
      }
      min_time[j] = tmin;
    }
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                return min_time[a] > min_time[b];
              });
    // Suffix sums over the *sorted* order for the bounds.
    for (std::size_t pos = n_; pos-- > 0;) {
      const std::size_t j = order_[pos];
      double amax = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        amax = std::max(amax, problem_.reliability(i, j));
      }
      min_rest_[pos] = min_rest_[pos + 1] + min_time[j];
      max_rel_rest_[pos] = max_rel_rest_[pos + 1] + amax;
    }
  }

  ExactSolution run(const ExactSolution& incumbent) {
    best_ = incumbent;
    if (!best_.feasible) {
      best_.objective = kInf;
    }
    best_any_objective_ = kInf;
    best_any_ = incumbent.assignment;
    aborted_ = false;
    dfs(0, 0.0);

    ExactSolution out;
    out.nodes_explored = nodes_;
    if (aborted_) {
      MFCP_LOG(kWarn) << "branch-and-bound node budget exhausted after "
                      << nodes_ << " nodes; returning best incumbent";
    }
    if (best_.objective < kInf) {
      out.assignment = best_.assignment;
      out.objective = best_.objective;
      out.feasible = true;
    } else {
      out.assignment = best_any_;
      out.objective = best_any_objective_;
      out.feasible = false;
    }
    out.proven_optimal = !aborted_;
    return out;
  }

 private:
  [[nodiscard]] double current_makespan() const {
    double best = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      best = std::max(
          best, problem_.speedup.value(static_cast<double>(counts_[i])) *
                    loads_[i]);
    }
    return best;
  }

  void dfs(std::size_t pos, double rel_sum) {
    if (config_.node_budget != 0 && nodes_ >= config_.node_budget) {
      aborted_ = true;
      return;
    }
    ++nodes_;

    if (pos == n_) {
      const double ms = current_makespan();
      if (ms < best_any_objective_) {
        best_any_objective_ = ms;
        best_any_ = current_;
      }
      const double avg_rel = rel_sum / static_cast<double>(n_);
      if (avg_rel >= problem_.gamma - 1e-12 && ms < best_.objective) {
        best_.objective = ms;
        best_.assignment = current_;
        best_.feasible = true;
      }
      return;
    }

    // Reliability bound: even giving every remaining task its best
    // cluster cannot reach the threshold -> prune the feasible search
    // (but keep exploring only if we might still improve best_any_).
    const bool can_be_feasible =
        rel_sum + max_rel_rest_[pos] >=
        problem_.gamma * static_cast<double>(n_) - 1e-12;

    // Makespan lower bounds valid under any completion:
    //  - every cluster's final busy time >= zeta_floor * current load;
    //  - averaging bound: total remaining work is at least min_rest.
    double max_load = 0.0;
    double total_load = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      max_load = std::max(max_load, loads_[i]);
      total_load += loads_[i];
    }
    const double lb = std::max(
        zeta_floor_ * max_load,
        zeta_floor_ * (total_load + min_rest_[pos]) /
            static_cast<double>(m_));
    const double ub =
        can_be_feasible ? std::max(best_.objective, best_any_objective_)
                        : best_any_objective_;
    if (lb >= ub) {
      return;
    }

    const std::size_t j = order_[pos];
    // Visit clusters in order of resulting load: good incumbents early.
    std::vector<std::size_t> cluster_order(m_);
    std::iota(cluster_order.begin(), cluster_order.end(), 0);
    std::sort(cluster_order.begin(), cluster_order.end(),
              [&](std::size_t a, std::size_t b) {
                return loads_[a] + problem_.times(a, j) <
                       loads_[b] + problem_.times(b, j);
              });
    for (std::size_t i : cluster_order) {
      loads_[i] += problem_.times(i, j);
      counts_[i] += 1;
      current_[j] = static_cast<int>(i);
      dfs(pos + 1, rel_sum + problem_.reliability(i, j));
      loads_[i] -= problem_.times(i, j);
      counts_[i] -= 1;
      current_[j] = -1;
      if (aborted_) {
        return;
      }
    }
  }

  const MatchingProblem& problem_;
  const ExactSolverConfig& config_;
  std::size_t m_;
  std::size_t n_;
  double zeta_floor_;

  std::vector<std::size_t> order_;
  std::vector<double> min_rest_;      // suffix sum of min task times
  std::vector<double> max_rel_rest_;  // suffix sum of max reliabilities

  std::vector<double> loads_;
  std::vector<int> counts_;
  Assignment current_;

  ExactSolution best_;
  Assignment best_any_;
  double best_any_objective_ = kInf;
  std::size_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

ExactSolution solve_enumeration(const MatchingProblem& problem) {
  problem.validate();
  const std::size_t m = problem.num_clusters();
  const std::size_t n = problem.num_tasks();
  const double combos = std::pow(static_cast<double>(m),
                                 static_cast<double>(n));
  MFCP_CHECK(combos <= static_cast<double>(1u << 26),
             "enumeration limited to M^N <= 2^26");

  ExactSolution best;
  best.objective = kInf;
  Assignment best_any;
  double best_any_obj = kInf;

  Assignment current(n, 0);
  std::size_t explored = 0;
  for (;;) {
    ++explored;
    const double ms = assignment_makespan(current, problem);
    if (ms < best_any_obj) {
      best_any_obj = ms;
      best_any = current;
    }
    if (is_feasible(current, problem) && ms < best.objective) {
      best.objective = ms;
      best.assignment = current;
      best.feasible = true;
    }
    // Odometer increment over clusters.
    std::size_t j = 0;
    while (j < n) {
      current[j] += 1;
      if (static_cast<std::size_t>(current[j]) < m) {
        break;
      }
      current[j] = 0;
      ++j;
    }
    if (j == n) {
      break;
    }
  }
  best.nodes_explored = explored;
  best.proven_optimal = true;
  if (!best.feasible) {
    best.assignment = best_any;
    best.objective = best_any_obj;
  }
  return best;
}

ExactSolution solve_greedy(const MatchingProblem& problem) {
  problem.validate();
  const std::size_t m = problem.num_clusters();
  const std::size_t n = problem.num_tasks();

  // LPT: longest tasks first, each to the cluster minimizing its resulting
  // effective busy time.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> min_time(n);
  for (std::size_t j = 0; j < n; ++j) {
    double tmin = kInf;
    for (std::size_t i = 0; i < m; ++i) {
      tmin = std::min(tmin, problem.times(i, j));
    }
    min_time[j] = tmin;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return min_time[a] > min_time[b];
  });

  Assignment assignment(n, 0);
  std::vector<double> loads(m, 0.0);
  std::vector<int> counts(m, 0);
  for (std::size_t j : order) {
    std::size_t best_i = 0;
    double best_busy = kInf;
    for (std::size_t i = 0; i < m; ++i) {
      const double busy =
          problem.speedup.value(static_cast<double>(counts[i] + 1)) *
          (loads[i] + problem.times(i, j));
      if (busy < best_busy) {
        best_busy = busy;
        best_i = i;
      }
    }
    assignment[j] = static_cast<int>(best_i);
    loads[best_i] += problem.times(best_i, j);
    counts[best_i] += 1;
  }

  // Reliability repair: greedily move the task with the best reliability
  // gain per unit makespan increase until feasible or no move helps.
  auto avg_rel = [&]() {
    return average_reliability(assignment, problem.reliability);
  };
  while (avg_rel() < problem.gamma - 1e-12) {
    double best_score = 0.0;
    std::size_t best_j = n;
    int best_target = -1;
    const double base_ms = assignment_makespan(assignment, problem);
    for (std::size_t j = 0; j < n; ++j) {
      const int from = assignment[j];
      for (std::size_t i = 0; i < m; ++i) {
        if (static_cast<int>(i) == from) {
          continue;
        }
        const double drel =
            problem.reliability(i, j) -
            problem.reliability(static_cast<std::size_t>(from), j);
        if (drel <= 0.0) {
          continue;
        }
        assignment[j] = static_cast<int>(i);
        const double dms =
            std::max(assignment_makespan(assignment, problem) - base_ms,
                     1e-9);
        assignment[j] = from;
        const double score = drel / dms;
        if (score > best_score) {
          best_score = score;
          best_j = j;
          best_target = static_cast<int>(i);
        }
      }
    }
    if (best_j == n) {
      break;  // no reliability-improving move exists
    }
    assignment[best_j] = best_target;
  }

  ExactSolution out;
  out.assignment = assignment;
  out.objective = assignment_makespan(assignment, problem);
  out.feasible = is_feasible(assignment, problem);
  out.proven_optimal = false;
  return out;
}

ExactSolution solve_exact(const MatchingProblem& problem,
                          const ExactSolverConfig& config) {
  problem.validate();
  const ExactSolution incumbent = solve_greedy(problem);
  BranchAndBound search(problem, config);
  return search.run(incumbent);
}

}  // namespace mfcp::matching
