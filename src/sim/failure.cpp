#include "sim/failure.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mfcp::sim {

ExecutionOutcome execute_assignment(const Platform& platform,
                                    const std::vector<TaskDescriptor>& tasks,
                                    const std::vector<int>& assignment,
                                    Rng& rng, int max_attempts) {
  MFCP_CHECK(assignment.size() == tasks.size(),
             "assignment length must match task count");
  MFCP_CHECK(max_attempts >= 1, "need at least one attempt");

  ExecutionOutcome out;
  out.assigned_cluster = assignment;
  out.succeeded.resize(tasks.size());
  out.attempts.resize(tasks.size());

  std::vector<double> busy(platform.num_clusters(), 0.0);
  std::size_t successes = 0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const int ci = assignment[j];
    MFCP_CHECK(ci >= 0 &&
                   static_cast<std::size_t>(ci) < platform.num_clusters(),
               "assignment references unknown cluster");
    const Cluster& cluster = platform.cluster(static_cast<std::size_t>(ci));
    busy[static_cast<std::size_t>(ci)] += cluster.execution_time(tasks[j]);

    int attempts = 0;
    bool ok = false;
    while (attempts < max_attempts && !ok) {
      ++attempts;
      ok = cluster.run_once(tasks[j], rng);
      if (!ok && attempts < max_attempts) {
        // A retry re-occupies the cluster for another full run.
        busy[static_cast<std::size_t>(ci)] +=
            cluster.execution_time(tasks[j]);
      }
    }
    out.attempts[j] = attempts;
    out.succeeded[j] = attempts == 1 && ok;
    if (out.succeeded[j]) {
      ++successes;
    }
  }
  out.makespan_hours = *std::max_element(busy.begin(), busy.end());
  out.empirical_success_rate =
      static_cast<double>(successes) / static_cast<double>(tasks.size());
  return out;
}

ClusterProfile drift_profile(const ClusterProfile& profile,
                             const ClusterDrift& drift) {
  MFCP_CHECK(drift.time_scale > 0.0 && drift.law_param_scale > 0.0 &&
                 drift.memory_scale > 0.0,
             "drift scales must be positive");
  ClusterProfile p = profile;
  p.base_seconds_per_unit *= drift.time_scale;
  p.law_param *= drift.law_param_scale;
  p.reliability_base += drift.reliability_logit_shift;
  p.memory_capacity_gb *= drift.memory_scale;
  return p;
}

void apply_drift(Platform& platform, std::size_t index,
                 const ClusterDrift& drift) {
  const ClusterProfile drifted =
      drift_profile(platform.cluster(index).profile(), drift);
  platform.set_cluster(index, Cluster(drifted));
}

}  // namespace mfcp::sim
