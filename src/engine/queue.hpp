// Bounded admission queue between the arrival stream and the micro-batcher.
//
// A live platform cannot buffer unboundedly: beyond its capacity, the
// newest submission is rejected at the door (backpressure to the client).
// Every drop is accounted — the engine exports drop rate as a first-class
// metric alongside regret.
//
// Jobs also expire: an arrival whose deadline passes while it waits is
// removed at round-formation time and counted separately from capacity
// drops, so queueing delay and undercapacity are distinguishable in the
// metrics CSV.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "engine/arrivals.hpp"
#include "obs/metrics.hpp"

namespace mfcp::engine {

struct QueueConfig {
  std::size_t capacity = 64;
};

/// Monotonic counters over the queue's lifetime.
struct QueueStats {
  std::size_t offered = 0;           // push attempts
  std::size_t admitted = 0;          // accepted pushes
  std::size_t dropped_capacity = 0;  // lost to the bounded buffer
  std::size_t expired = 0;           // lost to their own deadline
  std::size_t dispatched = 0;        // handed to a matching round

  [[nodiscard]] std::size_t dropped_total() const noexcept {
    return dropped_capacity + expired;
  }
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(const QueueConfig& config);

  /// Optional telemetry: mirrors the QueueStats counters and the live
  /// depth into `registry` (`mfcp_queue_*`). Null disables (default).
  void bind_metrics(obs::MetricsRegistry* registry);

  /// Admits one arrival, or bounces it when the queue is full. Returns
  /// true if admitted.
  bool push(Arrival arrival);

  /// Removes and counts every waiting job whose deadline is before `now`.
  void expire(double now);

  /// Pops up to `n` jobs in FIFO order for a matching round.
  std::vector<Arrival> pop_batch(std::size_t n);

  /// Opt-in retention of lost arrivals (capacity drops and deadline
  /// expiries) so the engine's regret attribution can price their
  /// counterfactual. Off by default — with nobody collecting, stashing
  /// every loss of a long run would grow without bound.
  void set_loss_tracking(bool enabled);

  /// Arrivals lost since the last call, in loss order; clears the stash.
  /// Empty unless loss tracking is enabled.
  [[nodiscard]] std::vector<Arrival> take_recent_losses();

  /// Why an arrival was lost (see LossCallback).
  enum class Loss : int {
    kCapacity = 0,  // bounced by the full buffer
    kExpired = 1,   // deadline passed while waiting
  };

  /// Observer invoked synchronously on every loss, independent of the
  /// attribution stash above. The engine's serve mode uses it to mark
  /// externally submitted tasks rejected/expired in the status table.
  using LossCallback = std::function<void(const Arrival&, Loss)>;
  void set_loss_callback(LossCallback callback) {
    on_loss_ = std::move(callback);
  }

  [[nodiscard]] std::size_t depth() const noexcept { return queue_.size(); }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  /// Arrival time of the head (oldest waiting) job. Requires !empty().
  [[nodiscard]] double oldest_arrival_time() const;

  [[nodiscard]] const QueueStats& stats() const noexcept { return stats_; }

 private:
  void record_depth() noexcept;

  /// Cached registry handles (null when telemetry is off).
  struct Telemetry {
    obs::Counter* offered = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* dropped_capacity = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* dispatched = nullptr;
    obs::Gauge* depth = nullptr;
  };

  QueueConfig config_;
  std::deque<Arrival> queue_;
  QueueStats stats_;
  Telemetry telemetry_;
  bool track_losses_ = false;
  std::vector<Arrival> recent_losses_;
  LossCallback on_loss_;
};

}  // namespace mfcp::engine
