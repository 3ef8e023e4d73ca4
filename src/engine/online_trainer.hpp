// Drift-aware online retraining for the platform predictors.
//
// Deployment feedback is partial: after a round runs, the engine observes
// the execution time and success of each task ONLY on the cluster it was
// assigned to (plus occasional full-row shadow profiles, see engine.hpp).
// Those observations land in a bounded ReplayBuffer — a ring, so recent
// experience gradually displaces stale pre-drift samples.
//
// Retraining is gated by a DriftDetector rather than run continuously:
// fine-tuning on every round wastes compute in a stationary environment
// and slowly erodes the decision-focused (MFCP) weights toward plain MSE.
// The detector compares a short rolling window of per-round prediction
// error against a longer baseline window; when the ratio trips, the
// OnlineTrainer runs a burst of MSE fine-tuning over the replay buffer
// (the standard "reactive retraining on detected drift" recipe, cf.
// Predict-and-Critic's motivation in PAPERS.md). The windows, the
// baseline floor, the cooldown and the burst's minibatch are constants
// in online_trainer.cpp.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "mfcp/predictor.hpp"
#include "obs/metrics.hpp"

namespace mfcp::engine {

/// One observed (z, cluster, t, success) outcome from a dispatched round.
struct Experience {
  std::vector<double> features;  // task embedding z
  std::size_t cluster = 0;       // where it ran
  double observed_time = 0.0;    // measured wall hours (noisy)
  double observed_success = 1.0; // 1 = first attempt succeeded, else 0
};

/// Per-task prediction-error term of the drift statistic: the robust
/// log-ratio |log((obs + ε) / (t̂ + ε))|. Symmetric in over- vs
/// under-prediction on the log scale, and — unlike the earlier relative
/// error |t̂ − obs| / max(t̂, ε), which is heavy-tailed when t̂ is tiny —
/// bounded by |log(ε) − log(obs + ε)| however small the prediction gets.
/// A k× hardware slowdown contributes ≈ log k regardless of task size.
[[nodiscard]] double drift_error(double predicted_time,
                                 double observed_time) noexcept;

/// Fixed-capacity ring buffer of experiences (oldest overwritten first).
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  void add(Experience experience);

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const Experience& at(std::size_t i) const;

  /// Monotonic insertion sequence number of slot `i` (0 for the first
  /// experience ever added). Recency weighting keys off this rather than
  /// the slot index, because the ring reorders slots once it wraps.
  [[nodiscard]] std::uint64_t sequence(std::size_t i) const;

  /// Sequence number of the most recently added experience. Requires
  /// size() > 0.
  [[nodiscard]] std::uint64_t latest_sequence() const;

  /// Indices of the stored experiences that ran on cluster `i`.
  [[nodiscard]] std::vector<std::size_t> indices_for_cluster(
      std::size_t i) const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring write cursor once full
  std::uint64_t next_seq_ = 0;
  std::vector<Experience> buffer_;
  std::vector<std::uint64_t> seq_;  // parallel to buffer_
};

/// Unnormalized recency weights for the experiences at `indices`: an
/// experience `a` insertions older than the buffer's newest gets weight
/// 2^(-a / half_life). half_life <= 0 returns all-ones (uniform). Pure
/// and deterministic — exposed for unit testing the sampling bias.
[[nodiscard]] std::vector<double> recency_weights(
    const ReplayBuffer& replay, const std::vector<std::size_t>& indices,
    double half_life);

struct DriftConfig {
  /// Trip when short mean > ratio_threshold * baseline mean. Calibrated
  /// for the log-ratio drift_error: a k× slowdown on a fraction f of the
  /// batch lifts the short mean by only f·log k (the old relative-error
  /// statistic inflated it by f·(k−1)), so trip ratios sit much closer
  /// to 1 than they would on the linear scale.
  double ratio_threshold = 1.3;
};

/// Why a round's statistic did or did not trigger a retrain — the
/// telemetry-facing refinement of the boolean observe() result.
enum class DriftDecision : int {
  kQuiet = 0,     // short-window mean below the trip threshold
  kWarmup = 1,    // not enough history for a meaningful baseline yet
  kCooldown = 2,  // would-be evaluation suppressed post-retrain
  kTrip = 3,      // drift detected; retrain now
};

std::string to_string(DriftDecision decision);

/// Windowed mean-ratio drift test over a per-round error statistic.
class DriftDetector {
 public:
  explicit DriftDetector(const DriftConfig& config);

  /// Feeds one round's error statistic; returns the full decision.
  DriftDecision evaluate(double error_stat);

  /// Feeds one round's error statistic; returns true when drift trips.
  bool observe(double error_stat) {
    return evaluate(error_stat) == DriftDecision::kTrip;
  }

  /// Called after a retrain: clears history (the predictor changed, old
  /// errors no longer describe it) and starts the cooldown.
  void acknowledge_retrain();

  [[nodiscard]] double short_mean() const noexcept;
  [[nodiscard]] double baseline_mean() const noexcept;
  [[nodiscard]] std::size_t cooldown_remaining() const noexcept {
    return cooldown_left_;
  }

 private:
  DriftConfig config_;
  std::deque<double> history_;  // newest at the back
  std::size_t cooldown_left_ = 0;
};

struct OnlineTrainerConfig {
  /// Recency half-life for replay sampling, in insertions: when > 0, a
  /// retrain minibatch draws experience `a` insertions old with weight
  /// 2^(-a / half_life), so post-drift evidence dominates the burst while
  /// the pre-drift tail still regularizes it. 0 (the default) keeps the
  /// original uniform-with-replacement sampling — bit-for-bit, including
  /// the RNG stream.
  double replay_recency_half_life = 0.0;
  /// Fine-tune burst length (epochs over the replay buffer).
  std::size_t retrain_epochs = 40;
  double learning_rate = 5e-3;
  /// Periodic retrain schedule: when > 0, a fine-tune burst also runs
  /// every N observed rounds, independent of the drift detector (the
  /// --retrain-every flag). Scheduled bursts reset the detector the same
  /// way tripped ones do — the predictor changed either way. 0 keeps
  /// retraining purely drift-triggered.
  std::size_t retrain_every = 0;
  DriftConfig drift;
  std::uint64_t seed = 0x0e11e7ULL;
};

/// Owns the replay buffer and drift detector; fine-tunes a
/// core::PlatformPredictor in place when drift trips.
class OnlineTrainer {
 public:
  explicit OnlineTrainer(const OnlineTrainerConfig& config);

  /// Optional telemetry: records every drift decision (with the statistic
  /// value that triggered or suppressed it) and retrain-burst wall time
  /// into `registry`. Null (the default) disables the instrumentation.
  void bind_metrics(obs::MetricsRegistry* registry);

  void record(Experience experience) { replay_.add(std::move(experience)); }

  /// Feeds the round's error statistic and, when the detector trips,
  /// runs one fine-tune burst. Returns true iff a retrain happened.
  bool observe_round(double error_stat, core::PlatformPredictor& predictor);

  /// Unconditional fine-tune burst over the replay buffer.
  void retrain(core::PlatformPredictor& predictor);

  [[nodiscard]] const ReplayBuffer& replay() const noexcept {
    return replay_;
  }
  [[nodiscard]] const DriftDetector& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] std::size_t retrain_count() const noexcept {
    return retrains_;
  }
  [[nodiscard]] std::size_t rounds_observed() const noexcept {
    return rounds_observed_;
  }

  /// Restores the schedule position after a checkpoint restore: the
  /// periodic retrain_every cadence and the retrain counter continue
  /// from where the previous incarnation stopped, so a restart never
  /// resets a schedule (or double-counts retrain_total in the journal).
  void restore_schedule(std::size_t rounds_observed,
                        std::size_t retrains) noexcept {
    rounds_observed_ = rounds_observed;
    retrains_ = retrains;
  }

 private:
  /// Cached registry handles (null when telemetry is off).
  struct Telemetry {
    obs::Gauge* drift_stat = nullptr;
    obs::Gauge* short_mean = nullptr;
    obs::Gauge* baseline_mean = nullptr;
    obs::Counter* decisions[4] = {nullptr, nullptr, nullptr, nullptr};
    obs::Histogram* retrain_seconds = nullptr;
  };

  OnlineTrainerConfig config_;
  ReplayBuffer replay_;
  DriftDetector detector_;
  Rng rng_;
  std::size_t retrains_ = 0;
  std::size_t rounds_observed_ = 0;
  Telemetry telemetry_;
};

}  // namespace mfcp::engine
