// Cluster performance predictors (paper §2.1).
//
// For every managed cluster i the platform trains two small MLPs over task
// features z: the execution-time predictor t̂ = m_ω(z) (softplus head, so
// t̂ > 0) and the reliability predictor â = m_φ(z) (sigmoid head, so
// â ∈ (0,1)). This module only defines the models; how their loss is formed
// is what distinguishes TSM (MSE) from MFCP (regret) — see the trainers.
#pragma once

#include <span>

#include "nn/mlp.hpp"

namespace mfcp::core {

struct PredictorConfig {
  std::size_t feature_dim = 12;
  std::vector<std::size_t> hidden = {32, 32};
  /// Scales the softplus time head so the network can express the hour
  /// range of real jobs without extreme weights.
  double time_scale = 4.0;
};

/// The (m_ω, m_φ) pair for one cluster.
class ClusterPredictor {
 public:
  ClusterPredictor(const PredictorConfig& config, Rng& rng);

  /// Prediction for a feature batch (n x d) through nn/fused_mlp: writes
  /// one value per feature row into `row`, e.g. a row of T̂ / Â. The time
  /// head's output is scaled by time_scale().
  void predict_time_row(const Matrix& features, std::span<double> row);
  void predict_reliability_row(const Matrix& features,
                               std::span<double> row);

  [[nodiscard]] nn::Mlp& time_model() noexcept { return time_model_; }
  [[nodiscard]] nn::Mlp& reliability_model() noexcept { return rel_model_; }

  [[nodiscard]] double time_scale() const noexcept { return time_scale_; }

 private:
  nn::Mlp time_model_;
  nn::Mlp rel_model_;
  double time_scale_;
};

/// All M cluster predictor pairs plus matrix-level convenience.
class PlatformPredictor {
 public:
  PlatformPredictor(std::size_t num_clusters, const PredictorConfig& config,
                    Rng& rng);

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return predictors_.size();
  }

  [[nodiscard]] ClusterPredictor& cluster(std::size_t i);

  /// T̂: M x N predicted execution times for a feature batch (N x d).
  Matrix predict_time_matrix(const Matrix& features);

  /// Â: M x N predicted reliabilities.
  Matrix predict_reliability_matrix(const Matrix& features);

 private:
  std::vector<ClusterPredictor> predictors_;
};

}  // namespace mfcp::core
