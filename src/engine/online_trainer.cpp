#include "engine/online_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/span.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace mfcp::engine {

double drift_error(double predicted_time, double observed_time) noexcept {
  // ε floors both sides so a zero prediction or observation stays finite;
  // 0.05 simulated hours matches the floor the old relative-error form
  // used, keeping the statistic scales comparable around typical tasks.
  constexpr double kEps = 0.05;
  return std::abs(std::log((observed_time + kEps) /
                           (predicted_time + kEps)));
}

// ------------------------------------------------------------- replay --

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  MFCP_CHECK(capacity_ > 0, "replay buffer capacity must be positive");
  buffer_.reserve(capacity_);
}

void ReplayBuffer::add(Experience experience) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(experience));
    seq_.push_back(next_seq_++);
    return;
  }
  buffer_[next_] = std::move(experience);
  seq_[next_] = next_seq_++;
  next_ = (next_ + 1) % capacity_;
}

const Experience& ReplayBuffer::at(std::size_t i) const {
  MFCP_CHECK(i < buffer_.size(), "replay index out of range");
  return buffer_[i];
}

std::uint64_t ReplayBuffer::sequence(std::size_t i) const {
  MFCP_CHECK(i < seq_.size(), "replay index out of range");
  return seq_[i];
}

std::uint64_t ReplayBuffer::latest_sequence() const {
  MFCP_CHECK(next_seq_ > 0, "latest_sequence on empty replay buffer");
  return next_seq_ - 1;
}

std::vector<double> recency_weights(const ReplayBuffer& replay,
                                    const std::vector<std::size_t>& indices,
                                    double half_life) {
  std::vector<double> weights(indices.size(), 1.0);
  if (half_life <= 0.0 || indices.empty()) {
    return weights;
  }
  const auto newest = static_cast<double>(replay.latest_sequence());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const double age =
        newest - static_cast<double>(replay.sequence(indices[k]));
    weights[k] = std::exp2(-age / half_life);
  }
  return weights;
}

std::vector<std::size_t> ReplayBuffer::indices_for_cluster(
    std::size_t i) const {
  std::vector<std::size_t> idx;
  for (std::size_t k = 0; k < buffer_.size(); ++k) {
    if (buffer_[k].cluster == i) {
      idx.push_back(k);
    }
  }
  return idx;
}

// ----------------------------------------------------------- detector --

DriftDetector::DriftDetector(const DriftConfig& config) : config_(config) {
  MFCP_CHECK(config_.short_window > 0 && config_.long_window > 0,
             "drift windows must be positive");
  MFCP_CHECK(config_.ratio_threshold > 1.0,
             "drift ratio threshold must exceed 1");
}

std::string to_string(DriftDecision decision) {
  switch (decision) {
    case DriftDecision::kQuiet:
      return "quiet";
    case DriftDecision::kWarmup:
      return "warmup";
    case DriftDecision::kCooldown:
      return "cooldown";
    case DriftDecision::kTrip:
      return "trip";
  }
  return "?";
}

DriftDecision DriftDetector::evaluate(double error_stat) {
  history_.push_back(error_stat);
  const std::size_t keep = config_.short_window + config_.long_window;
  while (history_.size() > keep) {
    history_.pop_front();
  }
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return DriftDecision::kCooldown;
  }
  // Need a full short window plus at least half a baseline to compare.
  if (history_.size() < config_.short_window + config_.long_window / 2) {
    return DriftDecision::kWarmup;
  }
  const double baseline = std::max(baseline_mean(), config_.min_baseline);
  return short_mean() > config_.ratio_threshold * baseline
             ? DriftDecision::kTrip
             : DriftDecision::kQuiet;
}

void DriftDetector::acknowledge_retrain() {
  history_.clear();
  cooldown_left_ = config_.cooldown_rounds;
}

double DriftDetector::short_mean() const noexcept {
  if (history_.empty()) {
    return 0.0;
  }
  const std::size_t s = std::min(config_.short_window, history_.size());
  return std::accumulate(history_.end() - static_cast<std::ptrdiff_t>(s),
                         history_.end(), 0.0) /
         static_cast<double>(s);
}

double DriftDetector::baseline_mean() const noexcept {
  if (history_.size() <= config_.short_window) {
    return 0.0;
  }
  const std::size_t b = history_.size() - config_.short_window;
  return std::accumulate(history_.begin(),
                         history_.begin() + static_cast<std::ptrdiff_t>(b),
                         0.0) /
         static_cast<double>(b);
}

// ------------------------------------------------------------ trainer --

namespace {
/// Replay-buffer bound: the newest experiences a retrain burst draws on.
constexpr std::size_t kReplayCapacity = 512;
}  // namespace

OnlineTrainer::OnlineTrainer(const OnlineTrainerConfig& config)
    : config_(config),
      replay_(kReplayCapacity),
      detector_(config.drift),
      rng_(config.seed) {
  MFCP_CHECK(config_.retrain_epochs > 0, "retrain burst needs epochs");
  MFCP_CHECK(config_.batch_size > 0, "batch size must be positive");
}

void OnlineTrainer::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    telemetry_ = Telemetry{};
    return;
  }
  telemetry_.drift_stat = &registry->gauge("mfcp_engine_drift_stat");
  telemetry_.short_mean = &registry->gauge("mfcp_engine_drift_short_mean");
  telemetry_.baseline_mean =
      &registry->gauge("mfcp_engine_drift_baseline_mean");
  for (int d = 0; d < 4; ++d) {
    telemetry_.decisions[d] = &registry->counter(
        "mfcp_engine_drift_decisions_total{decision=\"" +
        to_string(static_cast<DriftDecision>(d)) + "\"}");
  }
  telemetry_.retrain_seconds = &registry->histogram(
      "mfcp_engine_stage_seconds{stage=\"retrain\"}",
      obs::default_time_bounds());
}

bool OnlineTrainer::observe_round(double error_stat,
                                  core::PlatformPredictor& predictor) {
  ++rounds_observed_;
  const DriftDecision decision = detector_.evaluate(error_stat);
  if (telemetry_.drift_stat != nullptr) {
    telemetry_.drift_stat->set(error_stat);
    telemetry_.short_mean->set(detector_.short_mean());
    telemetry_.baseline_mean->set(detector_.baseline_mean());
    telemetry_.decisions[static_cast<int>(decision)]->add(1);
  }
  // Periodic schedule: rounds_observed_ is monotone across restarts
  // (restore_schedule), so the cadence phase survives a checkpoint
  // round-trip — round 64 retrains whether or not the process died at 50.
  const bool scheduled = config_.retrain_every > 0 &&
                         rounds_observed_ % config_.retrain_every == 0;
  if (decision != DriftDecision::kTrip && !scheduled) {
    if (decision == DriftDecision::kCooldown) {
      MFCP_LOG(kDebug) << "drift stat " << error_stat
                       << " suppressed by retrain cooldown ("
                       << detector_.cooldown_remaining()
                       << " rounds remaining)";
    }
    return false;
  }
  if (decision == DriftDecision::kTrip) {
    MFCP_LOG(kInfo) << "drift detected (stat " << error_stat << ", short "
                    << detector_.short_mean() << " vs baseline "
                    << detector_.baseline_mean() << "), retraining on "
                    << replay_.size() << " experiences";
  } else {
    MFCP_LOG(kInfo) << "scheduled retrain at observed round "
                    << rounds_observed_ << " (every "
                    << config_.retrain_every << "), retraining on "
                    << replay_.size() << " experiences";
  }
  {
    obs::ScopedSpan span(telemetry_.retrain_seconds, "retrain");
    retrain(predictor);
  }
  detector_.acknowledge_retrain();
  return true;
}

void OnlineTrainer::retrain(core::PlatformPredictor& predictor) {
  ++retrains_;
  const std::size_t m = predictor.num_clusters();
  for (std::size_t i = 0; i < m; ++i) {
    const auto idx = replay_.indices_for_cluster(i);
    if (idx.size() < config_.min_cluster_samples) {
      continue;
    }
    auto& cluster = predictor.cluster(i);
    nn::Adam time_opt(cluster.time_model().parameters(),
                      config_.learning_rate);
    nn::Adam rel_opt(cluster.reliability_model().parameters(),
                     config_.learning_rate);
    const std::size_t d = replay_.at(idx[0]).features.size();

    // Recency-weighted sampling (half_life > 0): a cumulative weight
    // table turns one uniform draw into one weighted draw via binary
    // search. half_life == 0 keeps the original uniform_index path and
    // with it the exact historical RNG stream.
    const double half_life = config_.replay_recency_half_life;
    std::vector<double> cdf;
    if (half_life > 0.0) {
      const std::vector<double> weights =
          recency_weights(replay_, idx, half_life);
      cdf.resize(weights.size());
      double acc = 0.0;
      for (std::size_t k = 0; k < weights.size(); ++k) {
        acc += weights[k];
        cdf[k] = acc;
      }
    }
    const auto draw = [&]() -> std::size_t {
      if (cdf.empty()) {
        return idx[rng_.uniform_index(idx.size())];
      }
      const double u = rng_.uniform() * cdf.back();
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      const std::size_t k = std::min(
          static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
      return idx[k];
    };

    for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
      // One minibatch per epoch, sampled with replacement from this
      // cluster's experiences — the burst is short, so epochs act as
      // SGD steps over the (small) replay population.
      const std::size_t b = std::min(config_.batch_size, idx.size());
      Matrix features(b, d);
      Matrix t_target(b, 1);
      Matrix a_target(b, 1);
      for (std::size_t k = 0; k < b; ++k) {
        const Experience& e = replay_.at(draw());
        MFCP_CHECK(e.features.size() == d,
                   "replay feature dimensions disagree");
        for (std::size_t c = 0; c < d; ++c) {
          features(k, c) = e.features[c];
        }
        t_target(k, 0) = e.observed_time;
        a_target(k, 0) = e.observed_success;
      }
      {
        nn::Variable in(features, /*requires_grad=*/false);
        auto loss = nn::mse(cluster.forward_time(in), t_target);
        time_opt.zero_grad();
        loss.backward();
        time_opt.step();
      }
      {
        nn::Variable in(features, /*requires_grad=*/false);
        auto loss = nn::mse(cluster.forward_reliability(in), a_target);
        rel_opt.zero_grad();
        loss.backward();
        rel_opt.step();
      }
    }
  }
}

}  // namespace mfcp::engine
