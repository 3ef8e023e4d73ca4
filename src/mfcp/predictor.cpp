#include "mfcp/predictor.hpp"

#include "nn/fused_mlp.hpp"
#include "support/check.hpp"

namespace mfcp::core {

namespace {

nn::MlpConfig time_config(const PredictorConfig& config) {
  nn::MlpConfig c;
  c.input_dim = config.feature_dim;
  c.hidden = config.hidden;
  c.output_dim = 1;
  c.output_activation = nn::Activation::kSoftplus;
  return c;
}

nn::MlpConfig rel_config(const PredictorConfig& config) {
  nn::MlpConfig c;
  c.input_dim = config.feature_dim;
  c.hidden = config.hidden;
  c.output_dim = 1;
  c.output_activation = nn::Activation::kSigmoid;
  return c;
}

}  // namespace

ClusterPredictor::ClusterPredictor(const PredictorConfig& config, Rng& rng)
    : time_model_(time_config(config), rng),
      rel_model_(rel_config(config), rng),
      time_scale_(config.time_scale) {
  MFCP_CHECK(time_scale_ > 0.0, "time scale must be positive");
}

void ClusterPredictor::predict_time_row(const Matrix& features,
                                        std::span<double> row) {
  nn::fused_forward(time_model_, features, time_scale_, row);
}

void ClusterPredictor::predict_reliability_row(const Matrix& features,
                                               std::span<double> row) {
  nn::fused_forward(rel_model_, features, 1.0, row);
}

PlatformPredictor::PlatformPredictor(std::size_t num_clusters,
                                     const PredictorConfig& config, Rng& rng) {
  MFCP_CHECK(num_clusters > 0, "need at least one cluster");
  predictors_.reserve(num_clusters);
  for (std::size_t i = 0; i < num_clusters; ++i) {
    predictors_.emplace_back(config, rng);
  }
}

ClusterPredictor& PlatformPredictor::cluster(std::size_t i) {
  MFCP_CHECK(i < predictors_.size(), "cluster index out of range");
  return predictors_[i];
}

Matrix PlatformPredictor::predict_time_matrix(const Matrix& features) {
  Matrix t(predictors_.size(), features.rows());
  for (std::size_t i = 0; i < predictors_.size(); ++i) {
    predictors_[i].predict_time_row(features, t.row_span(i));
  }
  return t;
}

Matrix PlatformPredictor::predict_reliability_matrix(const Matrix& features) {
  Matrix a(predictors_.size(), features.rows());
  for (std::size_t i = 0; i < predictors_.size(); ++i) {
    predictors_[i].predict_reliability_row(features, a.row_span(i));
  }
  return a;
}

}  // namespace mfcp::core
