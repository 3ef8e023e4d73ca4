// Ratekeeper: the closed-loop admission controller, modeled on
// FoundationDB's ratekeeper role.
//
// PR 5's SLO burn monitor can say the platform is melting; this is the
// component that acts on it. Every closed matching round the engine
// reports four pressure signals — queue depth, batching delay, expiry
// rate, and SLO burn — and the Ratekeeper folds each through a
// SmoothedSignal, normalizes it so 1.0 means "at the configured limit",
// and applies a multiplicative-decrease / additive-recovery law to the
// one scalar it owns: the global admission rate (tasks per simulated
// hour) that the per-client TokenBucketTable divides and enforces.
//
// Control law, per tick:
//   pressure = max(normalized signals)
//   pressure > 1.0            -> rate *= 0.8               (back off fast)
//   pressure < 0.7
//     for >= 3 ticks          -> rate += 8 tasks/h         (probe slowly)
//   otherwise                 -> hold                      (dead band)
// and the rate stays within [4, 1e6] tasks per hour: the floor keeps
// recovery possible and Retry-After finite.
// The dead band between the 0.7 release point and 1.0 is the hysteresis that
// keeps the controller from flapping when a signal hovers at the
// threshold: decreases need pressure above the trip point, recoveries
// need *sustained* calm strictly below the release point.
//
// Deterministic by construction: tick() is called from the engine's
// single-threaded round loop with simulated timestamps, and every input
// is itself deterministic for a seeded run — so the emitted rate, and
// therefore every token-bucket admission decision, replays exactly (CI
// byte-compares the round journal of two --ratekeeper runs). The mutex
// only protects status() reads from HTTP threads.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "control/smoothed.hpp"
#include "obs/slo.hpp"

namespace mfcp::control {

/// Which normalized signal produced the current pressure maximum.
enum class LimitingSignal : int {
  kNone = 0,          // below release: nothing limits
  kQueueDepth = 1,    // admission queue filling up
  kBatchLatency = 2,  // rounds closing on stale tasks
  kExpiry = 3,        // tasks dying in queue
  kSloBurn = 4,       // burn-rate rules consuming error budget
};

std::string to_string(LimitingSignal signal);

struct RatekeeperConfig {
  /// Rate published before any pressure has been observed; must lie in
  /// the controller's [4, 1e6] tasks/hour range.
  double initial_rate_per_hour = 120.0;
  /// Round max-wait (simulated hours) treated as pressure 1.0; must be
  /// positive (callers derive it from the batcher).
  double wait_target_hours = 0.5;
};

/// One round's worth of observed platform state.
struct RatekeeperSignals {
  double now_hours = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 1;
  /// Batching delay of the oldest task in the closing round.
  double batch_wait_hours = 0.0;
  /// Tasks matched this round.
  std::uint64_t batch = 0;
  /// Queue expiries since the previous tick.
  std::uint64_t expired = 0;
  /// Max over SLO rules of min(fast, slow) burn — the same both-windows
  /// semantics the monitor's firing rule uses.
  double slo_burn = 0.0;
};

/// Snapshot for GET /ratekeeper and the metric gauges.
struct RatekeeperStatus {
  double rate_per_hour = 0.0;
  LimitingSignal limiting = LimitingSignal::kNone;
  double pressure = 0.0;  // max normalized pressure at the last tick
  double queue_pressure = 0.0;
  double wait_pressure = 0.0;
  double expiry_pressure = 0.0;
  double burn_pressure = 0.0;
  /// Smoothed observed admission throughput (tasks per simulated hour).
  double admitted_rate_per_hour = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t decreases = 0;
  std::uint64_t recoveries = 0;
};

class Ratekeeper {
 public:
  /// `slo` supplies the expiry error budget and burn threshold the
  /// pressure normalization divides by — the same struct the SloMonitor
  /// evaluates against, so --slo-config retunes both at once.
  explicit Ratekeeper(RatekeeperConfig config = {},
                      const obs::SloConfig& slo = {});

  /// One controller step; engine round loop only. Returns the global
  /// admission rate to publish into the TokenBucketTable.
  double tick(const RatekeeperSignals& signals);

  /// Thread-safe snapshot (HTTP debug route, metric export).
  [[nodiscard]] RatekeeperStatus status() const;

  [[nodiscard]] const RatekeeperConfig& config() const noexcept {
    return config_;
  }

 private:
  RatekeeperConfig config_;
  double expiry_budget_;
  double burn_threshold_;

  SmoothedSignal queue_signal_;
  SmoothedSignal wait_signal_;
  SmoothedSignal expiry_signal_;
  SmoothedSignal burn_signal_;
  SmoothedRate admitted_rate_;

  double rate_per_hour_;
  std::size_t calm_ticks_ = 0;

  mutable std::mutex mutex_;
  RatekeeperStatus status_;  // guarded by mutex_
};

}  // namespace mfcp::control
