#include "matching/problem.hpp"

#include "support/check.hpp"

namespace mfcp::matching {

void MatchingProblem::validate() const {
  MFCP_CHECK(times.rows() > 0 && times.cols() > 0,
             "matching problem needs clusters and tasks");
  MFCP_CHECK(times.same_shape(reliability),
             "times and reliability must both be M x N");
  MFCP_CHECK(gamma >= 0.0 && gamma <= 1.0, "gamma must be in [0, 1]");
  for (std::size_t i = 0; i < times.size(); ++i) {
    MFCP_CHECK(times[i] > 0.0, "execution times must be positive");
    MFCP_CHECK(reliability[i] >= 0.0 && reliability[i] <= 1.0,
               "reliability entries must be probabilities");
  }
}

MatchingProblem MatchingProblem::with_metrics(Matrix t, Matrix a) const {
  MatchingProblem p = *this;
  p.times = std::move(t);
  p.reliability = std::move(a);
  return p;
}

Matrix assignment_to_matrix(const Assignment& assignment,
                            std::size_t num_clusters) {
  Matrix x(num_clusters, assignment.size(), 0.0);
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    const int i = assignment[j];
    MFCP_CHECK(i >= 0 && static_cast<std::size_t>(i) < num_clusters,
               "assignment references unknown cluster");
    x(static_cast<std::size_t>(i), j) = 1.0;
  }
  return x;
}

Assignment matrix_to_assignment(const Matrix& x) {
  Assignment assignment(x.cols(), 0);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < x.rows(); ++i) {
      if (x(i, j) > x(best, j)) {
        best = i;
      }
    }
    assignment[j] = static_cast<int>(best);
  }
  return assignment;
}

}  // namespace mfcp::matching
