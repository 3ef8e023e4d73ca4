#include "mfcp/linear_model.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/qr.hpp"
#include "support/check.hpp"

namespace mfcp::core {

namespace {

constexpr double kRidgeLambda = 1e-3;

/// Design matrix with an intercept column, rows scaled by sqrt(sample
/// weight) (weighted least squares via row scaling).
Matrix design(const Matrix& features, const std::vector<double>& weights) {
  const std::size_t s = features.rows();
  const std::size_t d = features.cols();
  Matrix x(s, d + 1);
  for (std::size_t i = 0; i < s; ++i) {
    const double w =
        weights.empty() ? 1.0 : std::sqrt(std::max(weights[i], 0.0));
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = w * features(i, j);
    }
    x(i, d) = w;
  }
  return x;
}

Matrix weighted_target(const Matrix& row, const std::vector<double>& weights) {
  Matrix y(row.size(), 1);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const double w =
        weights.empty() ? 1.0 : std::sqrt(std::max(weights[i], 0.0));
    y[i] = w * row[i];
  }
  return y;
}

}  // namespace

LinearClusterModel::LinearClusterModel(
    const Matrix& features, const Matrix& time_row, const Matrix& rel_row,
    const std::vector<double>& sample_weights) {
  MFCP_CHECK(time_row.size() == features.rows(),
             "time labels must match sample count");
  MFCP_CHECK(rel_row.size() == features.rows(),
             "reliability labels must match sample count");
  MFCP_CHECK(sample_weights.empty() ||
                 sample_weights.size() == features.rows(),
             "weights must match sample count");
  const Matrix x = design(features, sample_weights);
  w_time_ = ridge_regression(x, weighted_target(time_row, sample_weights),
                             kRidgeLambda);
  w_rel_ = ridge_regression(x, weighted_target(rel_row, sample_weights),
                            kRidgeLambda);
}

Matrix LinearClusterModel::predict(const Matrix& features,
                                   const Matrix& weights) const {
  const std::size_t n = features.rows();
  const std::size_t d = features.cols();
  MFCP_CHECK(weights.size() == d + 1, "feature width mismatch");
  Matrix out(1, n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = weights[d];
    for (std::size_t j = 0; j < d; ++j) {
      acc += features(i, j) * weights[j];
    }
    out[i] = acc;
  }
  return out;
}

Matrix LinearClusterModel::predict_time_row(const Matrix& features) const {
  Matrix t = predict(features, w_time_);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = std::max(t[i], 1e-3);
  }
  return t;
}

Matrix LinearClusterModel::predict_reliability_row(
    const Matrix& features) const {
  Matrix a = predict(features, w_rel_);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::clamp(a[i], 0.01, 0.999);
  }
  return a;
}

LinearPlatformModel::LinearPlatformModel(const sim::Dataset& train)
    : LinearPlatformModel(train, Matrix()) {}

LinearPlatformModel::LinearPlatformModel(const sim::Dataset& train,
                                         const Matrix& weights) {
  MFCP_CHECK(train.num_tasks() > train.feature_dim(),
             "need more samples than features for a stable fit");
  MFCP_CHECK(weights.empty() ||
                 (weights.rows() == train.num_clusters() &&
                  weights.cols() == train.num_tasks()),
             "weights must be M x n over the training set");
  const std::size_t m = train.num_clusters();
  models_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Matrix t_row(1, train.num_tasks());
    Matrix a_row(1, train.num_tasks());
    std::vector<double> w;
    if (!weights.empty()) {
      w.resize(train.num_tasks());
    }
    for (std::size_t j = 0; j < train.num_tasks(); ++j) {
      t_row[j] = train.times(i, j);
      a_row[j] = train.reliability(i, j);
      if (!weights.empty()) {
        w[j] = weights(i, j);
      }
    }
    models_.emplace_back(train.features, t_row, a_row, w);
  }
}

const LinearClusterModel& LinearPlatformModel::cluster(std::size_t i) const {
  MFCP_CHECK(i < models_.size(), "cluster index out of range");
  return models_[i];
}

Matrix LinearPlatformModel::predict_time_matrix(const Matrix& features) const {
  Matrix t(models_.size(), features.rows());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const Matrix row = models_[i].predict_time_row(features);
    for (std::size_t j = 0; j < features.rows(); ++j) {
      t(i, j) = row[j];
    }
  }
  return t;
}

Matrix LinearPlatformModel::predict_reliability_matrix(
    const Matrix& features) const {
  Matrix a(models_.size(), features.rows());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const Matrix row = models_[i].predict_reliability_row(features);
    for (std::size_t j = 0; j < features.rows(); ++j) {
      a(i, j) = row[j];
    }
  }
  return a;
}

}  // namespace mfcp::core
