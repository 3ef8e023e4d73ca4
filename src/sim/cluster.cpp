#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mfcp::sim {

std::string to_string(PerfLaw law) {
  switch (law) {
    case PerfLaw::kLinear:
      return "linear";
    case PerfLaw::kExponential:
      return "exponential";
    case PerfLaw::kSaturating:
      return "saturating";
  }
  return "unknown";
}

Cluster::Cluster(ClusterProfile profile) : profile_(std::move(profile)) {
  MFCP_CHECK(profile_.base_seconds_per_unit > 0.0,
             "cluster speed must be positive");
  MFCP_CHECK(profile_.law_param > 0.0, "law parameter must be positive");
}

double Cluster::execution_time(const TaskDescriptor& task) const {
  const double w = task.workload();
  const double k = profile_.law_param;
  double shaped = 0.0;
  switch (profile_.law) {
    case PerfLaw::kLinear:
      shaped = w;
      break;
    case PerfLaw::kExponential:
      // Super-linear: matches w for small w, grows exponentially after.
      shaped = std::expm1(k * w) / k;
      break;
    case PerfLaw::kSaturating:
      // Concave: good caching/parallel hardware absorbs large jobs.
      shaped = w / (1.0 + k * w) * (1.0 + k * 5.0);
      break;
  }
  const double affinity =
      profile_.family_affinity[static_cast<std::size_t>(task.family)];
  // Memory cliff: once the job footprint exceeds the cluster's capacity,
  // paging/offloading multiplies the runtime by up to (1+thrash_penalty).
  const double overflow =
      (task.memory_gb() - profile_.memory_capacity_gb) /
      profile_.thrash_width_gb;
  const double thrash =
      1.0 + profile_.thrash_penalty / (1.0 + std::exp(-overflow));
  const double hours =
      profile_.base_seconds_per_unit * affinity * shaped * thrash / 8.0;
  return std::max(hours, 1e-4);
}

double Cluster::reliability(const TaskDescriptor& task) const {
  const double logit = profile_.reliability_base -
                       profile_.memory_fragility * task.memory_gb() -
                       profile_.comm_fragility * task.comm_intensity();
  const double p = 1.0 / (1.0 + std::exp(-logit));
  return std::clamp(p, 0.01, 0.999);
}

double Cluster::measure_time(const TaskDescriptor& task, Rng& rng) const {
  const double t = execution_time(task);
  return t * rng.lognormal(0.0, profile_.time_noise_sigma);
}

double Cluster::measure_reliability(const TaskDescriptor& task,
                                    Rng& rng) const {
  const double a =
      reliability(task) + rng.normal(0.0, profile_.reliability_noise_sigma);
  return std::clamp(a, 0.01, 0.999);
}

bool Cluster::run_once(const TaskDescriptor& task, Rng& rng) const {
  return rng.bernoulli(reliability(task));
}

std::vector<ClusterProfile> cluster_catalog() {
  std::vector<ClusterProfile> catalog;

  {
    ClusterProfile p;
    p.name = "commodity-gpu";  // small-institution GTX/RTX box — 11GB card
    p.law = PerfLaw::kLinear;
    p.law_param = 0.05;
    p.base_seconds_per_unit = 1.4;
    p.family_affinity = {0.9, 1.4, 1.2, 1.0};  // good at CNNs, weak at attn
    p.reliability_base = 2.2;
    p.memory_fragility = 0.12;
    p.comm_fragility = 0.8;
    p.memory_capacity_gb = 1.5;
    p.thrash_penalty = 3.0;
    catalog.push_back(p);
  }
  {
    ClusterProfile p;
    p.name = "tensor-core-dgx";  // enterprise box with tensor cores
    p.law = PerfLaw::kSaturating;
    p.law_param = 0.02;
    p.base_seconds_per_unit = 0.6;
    p.family_affinity = {1.0, 0.7, 1.0, 0.9};  // optimized transformers
    p.reliability_base = 3.0;
    p.memory_fragility = 0.04;
    p.comm_fragility = 0.5;
    p.memory_capacity_gb = 8.0;
    p.thrash_penalty = 1.5;
    catalog.push_back(p);
  }
  {
    ClusterProfile p;
    p.name = "aging-cluster";  // older hardware, thermal throttling:
    p.law = PerfLaw::kExponential;  // super-linear in sustained load
    p.law_param = 0.08;
    p.base_seconds_per_unit = 1.0;
    p.family_affinity = {1.0, 1.3, 1.1, 1.0};
    p.reliability_base = 1.6;
    p.memory_fragility = 0.15;
    p.comm_fragility = 1.4;
    p.memory_capacity_gb = 1.0;
    p.thrash_penalty = 4.0;
    catalog.push_back(p);
  }
  {
    ClusterProfile p;
    p.name = "edge-pool";  // aggregated edge nodes: slow, flaky network
    p.law = PerfLaw::kLinear;
    p.law_param = 0.05;
    p.base_seconds_per_unit = 2.2;
    p.family_affinity = {1.0, 1.6, 1.3, 0.9};
    p.reliability_base = 1.2;
    p.memory_fragility = 0.20;
    p.comm_fragility = 2.0;
    p.memory_capacity_gb = 0.6;
    p.thrash_penalty = 6.0;
    catalog.push_back(p);
  }
  {
    ClusterProfile p;
    p.name = "hpc-partition";  // institutional HPC slice: fast, reliable
    p.law = PerfLaw::kSaturating;
    p.law_param = 0.015;
    p.base_seconds_per_unit = 0.45;
    p.family_affinity = {0.95, 0.85, 0.9, 0.95};
    p.reliability_base = 3.5;
    p.memory_fragility = 0.02;
    p.comm_fragility = 0.3;
    p.memory_capacity_gb = 4.0;
    p.thrash_penalty = 2.0;
    catalog.push_back(p);
  }
  {
    ClusterProfile p;
    p.name = "memory-bound-node";  // large RAM, slow compute, stable
    p.law = PerfLaw::kExponential;
    p.law_param = 0.04;
    p.base_seconds_per_unit = 1.7;
    p.family_affinity = {1.2, 1.1, 0.8, 1.0};  // relatively better at RNNs
    p.reliability_base = 2.6;
    p.memory_fragility = 0.02;
    p.comm_fragility = 1.0;
    p.memory_capacity_gb = 16.0;
    p.thrash_penalty = 0.5;
    catalog.push_back(p);
  }
  return catalog;
}

std::vector<Cluster> sample_clusters(std::size_t m, Rng& rng) {
  const auto catalog = cluster_catalog();
  MFCP_CHECK(m > 0, "need at least one cluster");
  std::vector<Cluster> clusters;
  clusters.reserve(m);
  const auto order = rng.permutation(catalog.size());
  for (std::size_t i = 0; i < m; ++i) {
    // Cycle through a shuffled catalog, jittering each profile so even two
    // instances of the same archetype are distinct machines.
    ClusterProfile p = catalog[order[i % catalog.size()]];
    p.name.append("-").append(std::to_string(i));
    p.base_seconds_per_unit *= rng.lognormal(0.0, 0.15);
    p.law_param *= rng.lognormal(0.0, 0.2);
    p.reliability_base += rng.normal(0.0, 0.25);
    p.memory_capacity_gb *= rng.lognormal(0.0, 0.2);
    for (auto& a : p.family_affinity) {
      a *= rng.lognormal(0.0, 0.1);
    }
    clusters.emplace_back(std::move(p));
  }
  return clusters;
}

}  // namespace mfcp::sim
