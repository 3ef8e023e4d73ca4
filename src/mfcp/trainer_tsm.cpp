#include "mfcp/trainer_tsm.hpp"

#include <algorithm>
#include <numeric>

#include "nn/fused_mlp.hpp"
#include "nn/optimizer.hpp"
#include "parallel/parallel_for.hpp"
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
  const std::size_t m = predictor.num_clusters();
  const std::size_t epochs = config.epochs;
  const bool full_batch = n <= config.batch_size;
  const std::size_t b = full_batch ? n : config.batch_size;

  // The 2m fits (job 2i is cluster i's time head, job 2i + 1 its
  // reliability head) share nothing but each epoch's batch. Every job
  // redraws that batch from its own Rng(config.seed), so it trains on
  // the batches one serial loop would draw, and the jobs run
  // independently on the global pool. Each keeps its own optimizer,
  // batch buffers and one loss per epoch; fused_mse_step's scratch is
  // per thread. Batches stream epoch by epoch into buffers sized once.
  std::vector<double> losses(2 * m * epochs);
  parallel_for(ThreadPool::global(), 2 * m, [&](std::size_t job) {
    const std::size_t i = job / 2;
    ClusterPredictor& cluster = predictor.cluster(i);
    const bool time_head = job % 2 == 0;
    nn::Mlp& mlp =
        time_head ? cluster.time_model() : cluster.reliability_model();
    const double scale = time_head ? cluster.time_scale() : 1.0;
    const Matrix& labels = time_head ? train.times : train.reliability;
    nn::Adam opt(mlp.parameters(), config.learning_rate);
    Rng rng(config.seed);
    std::vector<std::size_t> batch_idx(b);
    std::iota(batch_idx.begin(), batch_idx.end(), std::size_t{0});
    Matrix features(b, train.feature_dim());
    Matrix target(b, 1);
    double* job_losses = losses.data() + job * epochs;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      if (!full_batch) {
        const auto order = rng.permutation(n);
        std::copy(order.begin(), order.begin() + b, batch_idx.begin());
      }
      for (std::size_t k = 0; k < b; ++k) {
        for (std::size_t c = 0; c < train.feature_dim(); ++c) {
          features(k, c) = train.features(batch_idx[k], c);
        }
        target(k, 0) = labels(i, batch_idx[k]);
      }
      // Off the tape (nn/fused_mlp): the same losses and weights, bit for
      // bit, as zero_grad + mse(forward) + backward + step.
      job_losses[epoch] = nn::fused_mse_step(mlp, opt, features, target, scale);
    }
  });

  // Mean over clusters, summed in cluster order from 0.0 as the serial
  // loop summed, so both histories keep their bits.
  TsmTrainResult result;
  result.time_loss_history.reserve(epochs);
  result.rel_loss_history.reserve(epochs);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    double epoch_time_loss = 0.0;
    double epoch_rel_loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      epoch_time_loss += losses[2 * i * epochs + epoch];
      epoch_rel_loss += losses[(2 * i + 1) * epochs + epoch];
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
