// Failure injection: Monte-Carlo execution of a matching on the platform.
//
// Reliability labels in the dataset are probabilities; this module samples
// actual success/failure outcomes so integration tests and examples can
// observe the platform end-to-end (tasks retried, empirical success rates
// converging to the reliability matrix).
#pragma once

#include <vector>

#include "sim/platform.hpp"

namespace mfcp::sim {

struct ExecutionOutcome {
  std::vector<int> assigned_cluster;  // per task
  std::vector<bool> succeeded;        // per task, first attempt
  std::vector<int> attempts;          // attempts until success (capped)
  double makespan_hours = 0.0;        // max cluster busy time, first attempts
  double empirical_success_rate = 0.0;
};

/// Executes tasks under an assignment (task j -> cluster assignment[j]),
/// sampling per-task success from the ground-truth reliability. Failed
/// tasks are retried up to `max_attempts` (each retry re-occupies the
/// cluster). Returns per-task outcomes and aggregate statistics.
ExecutionOutcome execute_assignment(const Platform& platform,
                                    const std::vector<TaskDescriptor>& tasks,
                                    const std::vector<int>& assignment,
                                    Rng& rng, int max_attempts = 3);

/// Environment drift: a persistent change to one cluster's hidden
/// performance/reliability law (hardware swap, co-tenant load, degraded
/// interconnect). Applied mid-run it invalidates whatever a predictor
/// learned during profiling — the scenario online retraining exists for.
struct ClusterDrift {
  /// Multiplies base_seconds_per_unit (> 1 = slower hardware).
  double time_scale = 1.0;
  /// Multiplies the curvature of non-linear performance laws.
  double law_param_scale = 1.0;
  /// Added to the reliability base logit (< 0 = flakier cluster).
  double reliability_logit_shift = 0.0;
  /// Multiplies usable memory (< 1 moves the thrashing cliff left).
  double memory_scale = 1.0;
};

/// The drifted profile (pure; callers re-wrap into a Cluster).
ClusterProfile drift_profile(const ClusterProfile& profile,
                             const ClusterDrift& drift);

/// Applies the drift to cluster `index` of the platform in place.
void apply_drift(Platform& platform, std::size_t index,
                 const ClusterDrift& drift);

}  // namespace mfcp::sim
