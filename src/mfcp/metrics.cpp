#include "mfcp/metrics.hpp"

#include <sstream>

namespace mfcp::core {

void MetricsAccumulator::add(const MatchOutcome& outcome) {
  regret_.add(outcome.regret);
  reliability_.add(outcome.reliability);
  utilization_.add(outcome.utilization);
  if (outcome.feasible) {
    ++feasible_;
  }
}

double MetricsAccumulator::feasible_fraction() const noexcept {
  if (rounds() == 0) {
    return 0.0;
  }
  return static_cast<double>(feasible_) / static_cast<double>(rounds());
}

void MetricsAccumulator::to_registry(obs::MetricsRegistry& registry,
                                     std::string_view prefix,
                                     std::string_view labels) const {
  const std::string suffix =
      labels.empty() ? std::string() : '{' + std::string(labels) + '}';
  const auto expose = [&](std::string_view metric, const RunningStats& s) {
    const std::string base =
        std::string(prefix) + '_' + std::string(metric) + '_';
    registry.gauge(base + "mean" + suffix).set(s.mean());
    registry.gauge(base + "stddev" + suffix).set(s.stddev());
    if (s.count() > 0) {
      registry.gauge(base + "min" + suffix).set(s.min());
      registry.gauge(base + "max" + suffix).set(s.max());
    }
  };
  expose("regret", regret_);
  expose("reliability", reliability_);
  expose("utilization", utilization_);
  registry.gauge(std::string(prefix) + "_rounds" + suffix)
      .set(static_cast<double>(rounds()));
  registry.gauge(std::string(prefix) + "_feasible_fraction" + suffix)
      .set(feasible_fraction());
}

std::string MetricsAccumulator::summary(int precision) const {
  std::ostringstream os;
  os << "regret " << format_mean_std(regret_.mean(), regret_.stddev(),
                                     precision)
     << " | reliability "
     << format_mean_std(reliability_.mean(), reliability_.stddev(), precision)
     << " | utilization "
     << format_mean_std(utilization_.mean(), utilization_.stddev(),
                        precision);
  return os.str();
}

}  // namespace mfcp::core
