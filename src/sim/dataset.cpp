#include "sim/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mfcp::sim {

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out;
  out.tasks.reserve(indices.size());
  out.features = Matrix(indices.size(), features.cols());
  const std::size_t m = num_clusters();
  out.times = Matrix(m, indices.size());
  out.reliability = Matrix(m, indices.size());
  out.true_times = Matrix(m, indices.size());
  out.true_reliability = Matrix(m, indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t j = indices[k];
    MFCP_CHECK(j < num_tasks(), "subset index out of range");
    out.tasks.push_back(tasks[j]);
    for (std::size_t c = 0; c < features.cols(); ++c) {
      out.features(k, c) = features(j, c);
    }
    for (std::size_t i = 0; i < m; ++i) {
      out.times(i, k) = times(i, j);
      out.reliability(i, k) = reliability(i, j);
      out.true_times(i, k) = true_times(i, j);
      out.true_reliability(i, k) = true_reliability(i, j);
    }
  }
  return out;
}

Dataset build_dataset(const Platform& platform,
                      const PseudoGnnEmbedder& embedder,
                      const DatasetConfig& config) {
  MFCP_CHECK(config.num_tasks > 0, "dataset needs at least one task");
  Dataset data;
  TaskGenerator gen(Rng{config.task_seed});
  data.tasks = gen.sample_batch(config.num_tasks);
  data.features = embedder.embed_batch(data.tasks);
  data.true_times = platform.true_times(data.tasks);
  data.true_reliability = platform.true_reliability(data.tasks);
  Rng noise(config.noise_seed);
  data.times = platform.measure_times(data.tasks, noise);
  data.reliability = platform.measure_reliability(data.tasks, noise);
  return data;
}

std::pair<Dataset, Dataset> split_dataset(const Dataset& data,
                                          double train_fraction, Rng& rng) {
  MFCP_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
             "train fraction must be in (0, 1)");
  const std::size_t n = data.num_tasks();
  auto order = rng.permutation(n);
  const auto cut = static_cast<std::size_t>(
      std::clamp<double>(std::round(train_fraction * n), 1.0,
                         static_cast<double>(n - 1)));
  std::vector<std::size_t> train_idx(order.begin(), order.begin() + cut);
  std::vector<std::size_t> test_idx(order.begin() + cut, order.end());
  return {data.subset(train_idx), data.subset(test_idx)};
}

}  // namespace mfcp::sim
