#include "mfcp/trainer_tsm.hpp"

#include <algorithm>
#include <numeric>

#include "nn/fused_mlp.hpp"
#include "nn/optimizer.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mfcp::core {

TsmTrainResult train_tsm(PlatformPredictor& predictor,
                         const sim::Dataset& train, const TsmConfig& config) {
  MFCP_CHECK(train.num_clusters() == predictor.num_clusters(),
             "dataset and predictor disagree on cluster count");
  MFCP_CHECK(config.epochs > 0, "need at least one epoch");
  const std::size_t n = train.num_tasks();
  MFCP_CHECK(n > 0, "empty training set");

  Stopwatch watch;
  TsmTrainResult result;
  Rng rng(config.seed);

  const std::size_t m = predictor.num_clusters();
  std::vector<std::unique_ptr<nn::Adam>> time_opts;
  std::vector<std::unique_ptr<nn::Adam>> rel_opts;
  for (std::size_t i = 0; i < m; ++i) {
    time_opts.push_back(std::make_unique<nn::Adam>(
        predictor.cluster(i).time_model().parameters(),
        config.learning_rate));
    rel_opts.push_back(std::make_unique<nn::Adam>(
        predictor.cluster(i).reliability_model().parameters(),
        config.learning_rate));
  }

  // Batches stream epoch by epoch into buffers sized once.
  const bool full_batch = n <= config.batch_size;
  const std::size_t b = full_batch ? n : config.batch_size;
  std::vector<std::size_t> batch_idx(b);
  std::iota(batch_idx.begin(), batch_idx.end(), std::size_t{0});
  Matrix features(b, train.feature_dim());
  Matrix t_target(b, 1);
  Matrix a_target(b, 1);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // This epoch's batch (same batch for every cluster, fair).
    if (!full_batch) {
      const auto order = rng.permutation(n);
      std::copy(order.begin(), order.begin() + b, batch_idx.begin());
    }
    for (std::size_t k = 0; k < b; ++k) {
      for (std::size_t c = 0; c < train.feature_dim(); ++c) {
        features(k, c) = train.features(batch_idx[k], c);
      }
    }

    double epoch_time_loss = 0.0;
    double epoch_rel_loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < b; ++k) {
        t_target(k, 0) = train.times(i, batch_idx[k]);
        a_target(k, 0) = train.reliability(i, batch_idx[k]);
      }
      // Off the tape (nn/fused_mlp): the same losses and weights, bit for
      // bit, as zero_grad + mse(forward) + backward + step.
      auto& cluster = predictor.cluster(i);
      epoch_time_loss +=
          nn::fused_mse_step(cluster.time_model(), *time_opts[i], features,
                             t_target, cluster.time_scale());
      epoch_rel_loss += nn::fused_mse_step(cluster.reliability_model(),
                                           *rel_opts[i], features, a_target,
                                           1.0);
    }
    result.time_loss_history.push_back(epoch_time_loss /
                                       static_cast<double>(m));
    result.rel_loss_history.push_back(epoch_rel_loss /
                                      static_cast<double>(m));
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace mfcp::core
