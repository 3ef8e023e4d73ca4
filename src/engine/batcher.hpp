// Size-or-timeout micro-batching policy for matching rounds.
//
// The matching solvers amortize well over larger rounds (one barrier solve
// for N tasks), but tasks left waiting burn their deadlines. The standard
// serving compromise is micro-batching: close a round as soon as EITHER
//   - the queue holds max_batch tasks (size trigger), OR
//   - the oldest waiting task has waited max_wait_hours (timeout trigger).
// A final flush round drains whatever remains when the stream ends.
//
// The engine applies the policy itself: `OnlineEngine::admit` closes a size
// round, and the event loop closes timeout and flush rounds at the times
// `timeout_at` gives. This class holds the configuration, that deadline and
// the per-round telemetry.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"

namespace mfcp::engine {

enum class RoundTrigger : int { kSize = 0, kTimeout = 1, kFlush = 2 };

std::string to_string(RoundTrigger trigger);

struct BatcherConfig {
  /// Tasks per matching round when the size trigger fires.
  std::size_t max_batch = 6;
  /// Longest the head of the queue may wait before a round is forced.
  double max_wait_hours = 0.25;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(const BatcherConfig& config);

  /// Optional telemetry: per-trigger round counters and a batch-size
  /// histogram (`mfcp_engine_rounds_total`, `mfcp_engine_batch_size`).
  /// Null disables (default).
  void bind_metrics(obs::MetricsRegistry* registry);

  /// Records one closed round into the bound metrics (no-op when off).
  void record_round(RoundTrigger trigger, std::size_t batch_size) noexcept;

  [[nodiscard]] const BatcherConfig& config() const noexcept {
    return config_;
  }

  /// The absolute time at which the timeout trigger fires for a head job
  /// that arrived at `oldest_arrival_time`.
  [[nodiscard]] double timeout_at(double oldest_arrival_time) const noexcept {
    return oldest_arrival_time + config_.max_wait_hours;
  }

 private:
  /// Cached registry handles (null when telemetry is off).
  struct Telemetry {
    obs::Counter* rounds[3] = {nullptr, nullptr, nullptr};  // by trigger
    obs::Histogram* batch_size = nullptr;
  };

  BatcherConfig config_;
  Telemetry telemetry_;
};

}  // namespace mfcp::engine
