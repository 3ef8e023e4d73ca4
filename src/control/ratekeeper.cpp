#include "control/ratekeeper.hpp"

#include <algorithm>
#include <bit>

#include "obs/flight.hpp"
#include "support/check.hpp"

namespace mfcp::control {

namespace {
/// Multiplicative decrease applied while pressure exceeds 1.0.
constexpr double kDecreaseFactor = 0.8;
/// Hysteresis release point: calm means every signal below this fraction
/// of its trip threshold.
constexpr double kReleaseFraction = 0.7;
/// Queue utilization (depth / capacity) treated as pressure 1.0.
constexpr double kQueueTargetFraction = 0.75;
/// Sensor time constant for all smoothed inputs.
constexpr double kSmoothingHours = 0.1;
}  // namespace

std::string to_string(LimitingSignal signal) {
  switch (signal) {
    case LimitingSignal::kNone:
      return "none";
    case LimitingSignal::kQueueDepth:
      return "queue_depth";
    case LimitingSignal::kBatchLatency:
      return "batch_latency";
    case LimitingSignal::kExpiry:
      return "expiry";
    case LimitingSignal::kSloBurn:
      return "slo_burn";
  }
  return "?";
}

Ratekeeper::Ratekeeper(RatekeeperConfig config, const obs::SloConfig& slo)
    : config_(config),
      expiry_budget_(std::max(1e-6, 1.0 - slo.expiry_objective)),
      burn_threshold_(std::max(1e-6, slo.burn_threshold)),
      queue_signal_(kSmoothingHours),
      wait_signal_(kSmoothingHours),
      expiry_signal_(kSmoothingHours),
      burn_signal_(kSmoothingHours),
      admitted_rate_(kSmoothingHours),
      rate_per_hour_(std::clamp(config.initial_rate_per_hour,
                                config.min_rate_per_hour,
                                config.max_rate_per_hour)) {
  MFCP_CHECK(config_.min_rate_per_hour > 0.0 &&
                 config_.max_rate_per_hour >= config_.min_rate_per_hour,
             "rate clamp must satisfy 0 < min <= max");
  MFCP_CHECK(config_.recovery_step_per_hour > 0.0,
             "recovery step must be positive");
  status_.rate_per_hour = rate_per_hour_;
}

double Ratekeeper::tick(const RatekeeperSignals& signals) {
  const double now = signals.now_hours;

  const double capacity =
      static_cast<double>(std::max<std::size_t>(1, signals.queue_capacity));
  queue_signal_.observe(now,
                        static_cast<double>(signals.queue_depth) / capacity);
  if (config_.wait_target_hours > 0.0) {
    wait_signal_.observe(now,
                         signals.batch_wait_hours / config_.wait_target_hours);
  }
  const double processed =
      static_cast<double>(signals.batch + signals.expired);
  if (processed > 0.0) {
    // Expiry fraction on the same admitted-task denominator the SLO's
    // expiry SLI uses; rounds with nothing processed carry no evidence.
    expiry_signal_.observe(
        now, static_cast<double>(signals.expired) / processed);
  }
  burn_signal_.observe(now, signals.slo_burn);
  if (signals.batch > 0) {
    admitted_rate_.add(now, static_cast<double>(signals.batch));
  }

  const double queue_pressure =
      queue_signal_.value() / kQueueTargetFraction;
  const double wait_pressure =
      config_.wait_target_hours > 0.0 ? wait_signal_.value() : 0.0;
  const double expiry_pressure = expiry_signal_.value() / expiry_budget_;
  const double burn_pressure = burn_signal_.value() / burn_threshold_;

  double pressure = queue_pressure;
  LimitingSignal limiting = LimitingSignal::kQueueDepth;
  if (wait_pressure > pressure) {
    pressure = wait_pressure;
    limiting = LimitingSignal::kBatchLatency;
  }
  if (expiry_pressure > pressure) {
    pressure = expiry_pressure;
    limiting = LimitingSignal::kExpiry;
  }
  if (burn_pressure > pressure) {
    pressure = burn_pressure;
    limiting = LimitingSignal::kSloBurn;
  }

  std::uint64_t decreases = 0;
  std::uint64_t recoveries = 0;
  const double previous_rate = rate_per_hour_;
  if (pressure > 1.0) {
    rate_per_hour_ = std::max(config_.min_rate_per_hour,
                              rate_per_hour_ * kDecreaseFactor);
    calm_ticks_ = 0;
    decreases = 1;
  } else if (pressure < kReleaseFraction) {
    limiting = LimitingSignal::kNone;
    ++calm_ticks_;
    if (calm_ticks_ >= config_.recovery_ticks) {
      // Sustained calm: probe upward additively every subsequent tick
      // until something pushes back (AIMD's slow half).
      rate_per_hour_ = std::min(config_.max_rate_per_hour,
                                rate_per_hour_ +
                                    config_.recovery_step_per_hour);
      recoveries = 1;
    }
  } else {
    // Dead band: hold the rate and restart the calm count, so a signal
    // hovering at the threshold neither decreases nor recovers — the
    // hysteresis that prevents flapping.
    calm_ticks_ = 0;
  }

  if (rate_per_hour_ != previous_rate) {
    // Controller moves are rare and diagnostic gold: record old/new rate
    // (double bits) and the limiting signal on the flight recorder, when
    // one is installed process-wide. Write-only — decisions are made.
    if (obs::FlightRecorder* recorder = obs::default_flight()) {
      recorder->record(obs::FlightKind::kRateChange, now,
                       std::bit_cast<std::uint64_t>(previous_rate),
                       std::bit_cast<std::uint64_t>(rate_per_hour_),
                       static_cast<std::uint64_t>(static_cast<int>(limiting)));
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  status_.rate_per_hour = rate_per_hour_;
  status_.limiting = limiting;
  status_.pressure = pressure;
  status_.queue_pressure = queue_pressure;
  status_.wait_pressure = wait_pressure;
  status_.expiry_pressure = expiry_pressure;
  status_.burn_pressure = burn_pressure;
  status_.admitted_rate_per_hour = admitted_rate_.rate_per_hour(now);
  ++status_.ticks;
  status_.decreases += decreases;
  status_.recoveries += recoveries;
  return rate_per_hour_;
}

RatekeeperStatus Ratekeeper::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

}  // namespace mfcp::control
