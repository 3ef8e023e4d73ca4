#include "engine/queue.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mfcp::engine {

AdmissionQueue::AdmissionQueue(const QueueConfig& config) : config_(config) {
  MFCP_CHECK(config_.capacity > 0, "queue capacity must be positive");
}

void AdmissionQueue::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    telemetry_ = Telemetry{};
    return;
  }
  telemetry_.offered = &registry->counter("mfcp_queue_offered_total");
  telemetry_.admitted = &registry->counter("mfcp_queue_admitted_total");
  telemetry_.dropped_capacity =
      &registry->counter("mfcp_queue_dropped_capacity_total");
  telemetry_.expired = &registry->counter("mfcp_queue_expired_total");
  telemetry_.dispatched = &registry->counter("mfcp_queue_dispatched_total");
  telemetry_.depth = &registry->gauge("mfcp_queue_depth");
}

void AdmissionQueue::record_depth() noexcept {
  if (telemetry_.depth != nullptr) {
    telemetry_.depth->set(static_cast<double>(queue_.size()));
  }
}

bool AdmissionQueue::push(Arrival arrival) {
  ++stats_.offered;
  if (telemetry_.offered != nullptr) {
    telemetry_.offered->add(1);
  }
  if (queue_.size() >= config_.capacity) {
    ++stats_.dropped_capacity;
    if (telemetry_.dropped_capacity != nullptr) {
      telemetry_.dropped_capacity->add(1);
    }
    if (on_loss_) {
      on_loss_(arrival, Loss::kCapacity);
    }
    if (track_losses_) {
      recent_losses_.push_back(std::move(arrival));
    }
    return false;
  }
  queue_.push_back(std::move(arrival));
  ++stats_.admitted;
  if (telemetry_.admitted != nullptr) {
    telemetry_.admitted->add(1);
  }
  record_depth();
  return true;
}

void AdmissionQueue::expire(double now) {
  // FIFO admission does not imply FIFO deadlines (patience is uniform here
  // but need not stay so), so scan the whole buffer.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_hours < now) {
      if (on_loss_) {
        on_loss_(*it, Loss::kExpired);
      }
      if (track_losses_) {
        recent_losses_.push_back(std::move(*it));
      }
      it = queue_.erase(it);
      ++stats_.expired;
      if (telemetry_.expired != nullptr) {
        telemetry_.expired->add(1);
      }
    } else {
      ++it;
    }
  }
  record_depth();
}

void AdmissionQueue::set_loss_tracking(bool enabled) {
  track_losses_ = enabled;
  if (!enabled) {
    recent_losses_.clear();
  }
}

std::vector<Arrival> AdmissionQueue::take_recent_losses() {
  std::vector<Arrival> out;
  out.swap(recent_losses_);
  return out;
}

std::vector<Arrival> AdmissionQueue::pop_batch(std::size_t n) {
  std::vector<Arrival> batch;
  const std::size_t take = std::min(n, queue_.size());
  batch.reserve(take);
  for (std::size_t k = 0; k < take; ++k) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  stats_.dispatched += batch.size();
  if (telemetry_.dispatched != nullptr) {
    telemetry_.dispatched->add(batch.size());
  }
  record_depth();
  return batch;
}

double AdmissionQueue::oldest_arrival_time() const {
  MFCP_CHECK(!queue_.empty(), "oldest_arrival_time on empty queue");
  return queue_.front().time_hours;
}

}  // namespace mfcp::engine
