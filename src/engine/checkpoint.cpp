#include "engine/checkpoint.hpp"

#include <iomanip>
#include <utility>
#include <vector>

#include "nn/serialize.hpp"
#include "support/check.hpp"

namespace mfcp::engine {

void save_checkpoint(std::ostream& os, core::PlatformPredictor& predictor,
                     const EngineCounters& counters) {
  os << "mfcp-engine-checkpoint 1\n";
  os << counters.rounds << ' ' << counters.arrivals << ' '
     << counters.admitted << ' ' << counters.dropped_capacity << ' '
     << counters.expired << ' ' << counters.dispatched << ' '
     << counters.retrains << ' ' << std::setprecision(17)
     << counters.sim_time_hours << '\n';
  os << predictor.num_clusters() << '\n';
  for (std::size_t i = 0; i < predictor.num_clusters(); ++i) {
    nn::save_mlp(os, predictor.cluster(i).time_model());
    nn::save_mlp(os, predictor.cluster(i).reliability_model());
  }
}

EngineCounters load_checkpoint(std::istream& is,
                               core::PlatformPredictor& predictor) {
  std::string magic;
  int version = 0;
  MFCP_CHECK(static_cast<bool>(is >> magic >> version) &&
                 magic == "mfcp-engine-checkpoint" && version == 1,
             "not an mfcp-engine-checkpoint v1 file");
  EngineCounters counters;
  MFCP_CHECK(static_cast<bool>(
                 is >> counters.rounds >> counters.arrivals >>
                 counters.admitted >> counters.dropped_capacity >>
                 counters.expired >> counters.dispatched >>
                 counters.retrains >> counters.sim_time_hours),
             "corrupt engine checkpoint: missing counters");
  std::size_t clusters = 0;
  MFCP_CHECK(static_cast<bool>(is >> clusters) &&
                 clusters == predictor.num_clusters(),
             "engine checkpoint cluster count does not match predictor");
  // Parse every model before touching any, so a snapshot that fails
  // part-way leaves the predictor as it was.
  std::vector<std::vector<Matrix>> weights;
  weights.reserve(2 * clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    weights.push_back(nn::read_mlp(is, predictor.cluster(i).time_model()));
    weights.push_back(
        nn::read_mlp(is, predictor.cluster(i).reliability_model()));
  }
  for (std::size_t i = 0; i < clusters; ++i) {
    nn::assign_mlp(predictor.cluster(i).time_model(),
                   std::move(weights[2 * i]));
    nn::assign_mlp(predictor.cluster(i).reliability_model(),
                   std::move(weights[2 * i + 1]));
  }
  return counters;
}

}  // namespace mfcp::engine
