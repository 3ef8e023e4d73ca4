// Closed-form ridge-regression predictors — the predictor class of the
// paper's Fig. 2 motivating example ("an execution time predictor for
// three tasks using linear regression").
//
// A linear model in the task features cannot represent the exponential /
// cliff-shaped cluster laws, so its MSE-optimal fit makes exactly the
// systematic, decision-flipping errors the figure illustrates — which is
// what bench/exp_fig2_motivation demonstrates. The fit is closed-form (no
// SGD, no seeds). Every fit has an intercept and a ridge penalty of 1e-3
// (which also guards against collinear features).
#pragma once

#include "linalg/matrix.hpp"
#include "sim/dataset.hpp"

namespace mfcp::core {

/// One cluster's linear execution-time predictor.
class LinearClusterModel {
 public:
  /// Fits on (features, times-row) with optional per-sample weights
  /// (empty = uniform), so a decision-focused reweighting can be applied
  /// on top of the closed-form fit (Fig. 2's "assign higher learning
  /// weights to the tasks preferred by a cluster").
  LinearClusterModel(const Matrix& features, const Matrix& time_row,
                     const std::vector<double>& sample_weights);

  /// Predicted execution times (clamped positive), 1 x n.
  [[nodiscard]] Matrix predict_time_row(const Matrix& features) const;

 private:
  Matrix w_time_;  // (d + 1) x 1, the intercept last
};

/// All clusters' linear predictors fitted from a dataset.
class LinearPlatformModel {
 public:
  explicit LinearPlatformModel(const sim::Dataset& train);

  /// Refits with per-(cluster, sample) weights — the decision-focused
  /// reweighting hook. `weights` is M x n over the training set.
  LinearPlatformModel(const sim::Dataset& train, const Matrix& weights);

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return models_.size();
  }

  [[nodiscard]] Matrix predict_time_matrix(const Matrix& features) const;

 private:
  std::vector<LinearClusterModel> models_;
};

}  // namespace mfcp::core
