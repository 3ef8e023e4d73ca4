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
  // permutation and batch buffers and one loss per epoch;
  // fused_mse_step's scratch is per thread. Batches stream epoch by
  // epoch into buffers sized once, copied a feature row at a time.
  const std::size_t d = train.feature_dim();
  std::vector<double> losses(2 * m * epochs);
  parallel_for(ThreadPool::global(), 2 * m, [&](std::size_t job) {
    const std::size_t i = job / 2;
    ClusterPredictor& cluster = predictor.cluster(i);
    const bool time_head = job % 2 == 0;
    nn::Mlp& mlp =
        time_head ? cluster.time_model() : cluster.reliability_model();
    const double scale = time_head ? cluster.time_scale() : 1.0;
    const Matrix& labels = time_head ? train.times : train.reliability;
    const double* label_row = labels.row_span(i).data();
    nn::Adam opt(mlp.parameters(), config.learning_rate);
    Rng rng(config.seed);
    // A full batch keeps the identity order; a minibatch takes the first
    // b entries of each epoch's permutation.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Matrix features(b, d);
    Matrix target(b, 1);
    double* job_losses = losses.data() + job * epochs;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      if (!full_batch) {
        rng.permutation(std::span<std::size_t>(order));
      }
      for (std::size_t k = 0; k < b; ++k) {
        const double* row = train.features.row_span(order[k]).data();
        std::copy(row, row + d, features.data() + k * d);
        target.data()[k] = label_row[order[k]];
      }
      // Off the tape (nn/fused_mlp): the same losses and weights, bit for
      // bit, as autograd::tape_mse_step.
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
