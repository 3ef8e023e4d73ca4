#include "engine/batcher.hpp"

#include "support/check.hpp"

namespace mfcp::engine {

std::string to_string(RoundTrigger trigger) {
  switch (trigger) {
    case RoundTrigger::kSize:
      return "size";
    case RoundTrigger::kTimeout:
      return "timeout";
    case RoundTrigger::kFlush:
      return "flush";
  }
  return "?";
}

MicroBatcher::MicroBatcher(const BatcherConfig& config) : config_(config) {
  MFCP_CHECK(config_.max_batch > 0, "batch size must be positive");
  MFCP_CHECK(config_.max_wait_hours > 0.0, "max wait must be positive");
}

void MicroBatcher::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    telemetry_ = Telemetry{};
    return;
  }
  for (int t = 0; t < 3; ++t) {
    telemetry_.rounds[t] = &registry->counter(
        "mfcp_engine_rounds_total{trigger=\"" +
        to_string(static_cast<RoundTrigger>(t)) + "\"}");
  }
  // Batch sizes are small integers; unit-width buckets up to the common
  // configurations, then a coarse tail.
  static constexpr double kBounds[] = {1.0,  2.0,  3.0,  4.0,  6.0,
                                       8.0,  12.0, 16.0, 24.0, 32.0};
  telemetry_.batch_size =
      &registry->histogram("mfcp_engine_batch_size", kBounds);
}

void MicroBatcher::record_round(RoundTrigger trigger,
                                std::size_t batch_size) noexcept {
  if (telemetry_.batch_size == nullptr) {
    return;
  }
  telemetry_.rounds[static_cast<int>(trigger)]->add(1);
  telemetry_.batch_size->observe(static_cast<double>(batch_size));
}

}  // namespace mfcp::engine
