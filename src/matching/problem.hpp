// The cluster-task matching problem (paper §2.1, problem (2)).
//
// Given M clusters, N tasks, an execution-time matrix T (M x N) and a
// reliability matrix A (M x N), choose a binary assignment X (M x N, one
// cluster per task) minimizing the makespan
//     f(X, T) = max_i  ζ(n_i) · x_i^T t_i            (Eq. 3 / Eq. 16)
// subject to the platform-level reliability constraint
//     g(X, A) = (1/N) Σ_i x_i^T a_i  -  γ  >=  0.    (cf. Eq. 4)
//
// NOTE on normalization: the paper writes g with a 1/(MN) factor, which —
// because each task is assigned exactly once — equals (average task
// reliability)/M. We use the 1/N form so γ is directly interpretable as the
// required average task success probability (the paper's "Reliability"
// metric); the two are equivalent up to γ_paper = γ_ours / M.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/speedup.hpp"

namespace mfcp::matching {

struct MatchingProblem {
  Matrix times;        // M x N
  Matrix reliability;  // M x N
  double gamma = 0.8;  // required average task success probability
  sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive();

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return times.rows();
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return times.cols();
  }

  /// Validates shapes and value ranges; throws ContractError on misuse.
  void validate() const;

  /// Same problem with different (e.g. predicted) metric matrices.
  [[nodiscard]] MatchingProblem with_metrics(Matrix t, Matrix a) const;
};

/// A discrete assignment: task j runs on cluster assignment[j].
using Assignment = std::vector<int>;

/// Binary M x N matrix form of an assignment.
Matrix assignment_to_matrix(const Assignment& assignment,
                            std::size_t num_clusters);

/// Inverse of assignment_to_matrix for a binary matrix (argmax per column).
Assignment matrix_to_assignment(const Matrix& x);

}  // namespace mfcp::matching
