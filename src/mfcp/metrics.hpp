// Aggregation of the paper's three evaluation metrics over test rounds.
#pragma once

#include <string>

#include "mfcp/regret.hpp"
#include "obs/metrics.hpp"
#include "support/stats.hpp"

namespace mfcp::core {

/// Accumulates Regret / Reliability / Utilization over repeated rounds,
/// reported as mean ± std like every table cell in the paper.
class MetricsAccumulator {
 public:
  void add(const MatchOutcome& outcome);

  [[nodiscard]] const RunningStats& regret() const noexcept {
    return regret_;
  }
  [[nodiscard]] const RunningStats& reliability() const noexcept {
    return reliability_;
  }
  [[nodiscard]] const RunningStats& utilization() const noexcept {
    return utilization_;
  }
  [[nodiscard]] std::size_t rounds() const noexcept {
    return regret_.count();
  }
  [[nodiscard]] double feasible_fraction() const noexcept;

  /// "r ± s | rel ± s | util ± s" summary (debug/log aid).
  [[nodiscard]] std::string summary(int precision = 3) const;

  /// Bridges the experiment-level metrics into an obs::MetricsRegistry so
  /// regret/reliability/utilization appear in the same text exposition as
  /// the engine's telemetry instead of living in a parallel struct. For
  /// each metric this exports `<prefix>_<metric>_{mean,stddev,min,max}`
  /// gauges, plus `<prefix>_rounds` and `<prefix>_feasible_fraction`.
  /// A non-empty `labels` ('method="TSM",setting="A"') is appended to
  /// every exported name, letting one registry hold several methods'
  /// results side by side (the offline harnesses' --metrics flag).
  void to_registry(obs::MetricsRegistry& registry,
                   std::string_view prefix = "mfcp_eval",
                   std::string_view labels = {}) const;

 private:
  RunningStats regret_;
  RunningStats reliability_;
  RunningStats utilization_;
  std::size_t feasible_ = 0;
};

}  // namespace mfcp::core
