// Training/evaluation dataset construction (the D = {z, t, a} of Eq. 1).
#pragma once

#include <vector>

#include "sim/platform.hpp"

namespace mfcp::sim {

/// A profiled batch of tasks on a platform: features plus per-cluster
/// labels. Rows of `features` are tasks; labels are (M x N).
struct Dataset {
  std::vector<TaskDescriptor> tasks;
  Matrix features;       // N x d
  Matrix times;          // M x N, training labels (profiling noise)
  Matrix reliability;    // M x N
  Matrix true_times;     // M x N, noiseless ground truth
  Matrix true_reliability;

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return tasks.size();
  }
  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return times.rows();
  }
  [[nodiscard]] std::size_t feature_dim() const noexcept {
    return features.cols();
  }

  /// Column-subset view materialized as a new dataset (for mini-batches and
  /// train/test splits).
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& indices) const;
};

struct DatasetConfig {
  std::size_t num_tasks = 200;
  std::uint64_t task_seed = 0x7a5cULL;
  std::uint64_t noise_seed = 0x401feULL;
};

/// Samples tasks, embeds them, and profiles them on every cluster of the
/// platform: the labels are noisy measurements, the true_* matrices the
/// noiseless laws.
Dataset build_dataset(const Platform& platform,
                      const PseudoGnnEmbedder& embedder,
                      const DatasetConfig& config);

/// Deterministic split into train/test by shuffled indices.
std::pair<Dataset, Dataset> split_dataset(const Dataset& data,
                                          double train_fraction, Rng& rng);

}  // namespace mfcp::sim
