// Exact discrete matching — the ground-truth optimum X*(T, A) that regret
// (Eq. 6) is measured against.
//
// Minimizing makespan over binary assignments is NP-hard (it generalizes
// multiprocessor scheduling), but the paper's instances are small (M = 3
// clusters, N up to a few dozen tasks), which depth-first branch-and-bound
// with load/reliability bounds handles exactly. For larger N a node budget
// turns the solver into an anytime method returning the best incumbent
// (EXPERIMENTS.md documents where that kicks in).
#pragma once

#include <optional>

#include "matching/problem.hpp"

namespace mfcp::matching {

struct ExactSolverConfig {
  /// Abort the search after this many explored nodes (0 = unlimited).
  std::size_t node_budget = 50'000'000;
};

struct ExactSolution {
  Assignment assignment;
  double objective = 0.0;       // makespan under the problem's metrics
  bool feasible = false;        // reliability constraint satisfied
  bool proven_optimal = false;  // search completed within budget
  std::size_t nodes_explored = 0;
};

/// Exhaustive enumeration of all M^N assignments. Only for tiny instances
/// (checked: M^N <= 2^26); used as the oracle in property tests.
ExactSolution solve_enumeration(const MatchingProblem& problem);

/// Branch-and-bound exact solver. Returns the best feasible assignment
/// found; `proven_optimal` is false if the node budget was exhausted.
/// If no feasible assignment exists, `feasible` is false and the
/// assignment minimizes makespan ignoring the reliability constraint.
ExactSolution solve_exact(const MatchingProblem& problem,
                          const ExactSolverConfig& config = {});

/// Longest-processing-time greedy heuristic with reliability repair —
/// used for the B&B incumbent and as a fast standalone baseline.
ExactSolution solve_greedy(const MatchingProblem& problem);

}  // namespace mfcp::matching
