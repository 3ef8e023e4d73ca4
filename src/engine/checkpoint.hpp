// Engine snapshot payload: predictor weights plus engine counters.
//
// A long-running platform process must survive restarts without losing
// what the online trainer learned. This is the payload that
// storage::CheckpointManager wraps in its generation files (header, CRC,
// atomic publish) — the platform's one persistence format. It is plain
// text (locale independent, like nn/serialize):
//   mfcp-engine-checkpoint 1
//   <counters: rounds arrivals admitted dropped_capacity expired
//              dispatched retrains sim_time_hours>
//   <num_clusters>
//   <2 * num_clusters mfcp-mlp blocks: time then reliability, per cluster>
// Doubles round-trip bit-exactly (max_digits10), so restored predictor
// weights are identical to the saved ones. The mlp blocks are written
// with std::to_chars and parsed with std::from_chars (nn/serialize),
// which accepts exactly what the writer writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "mfcp/predictor.hpp"

namespace mfcp::engine {

/// Monotonic progress counters of an engine run.
struct EngineCounters {
  std::size_t rounds = 0;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t dropped_capacity = 0;
  std::size_t expired = 0;
  std::size_t dispatched = 0;
  std::size_t retrains = 0;
  double sim_time_hours = 0.0;

  bool operator==(const EngineCounters&) const = default;
};

void save_checkpoint(std::ostream& os, core::PlatformPredictor& predictor,
                     const EngineCounters& counters);

/// Restores weights into a predictor with identical architecture and
/// returns the saved counters. Throws on format or shape mismatch; the
/// whole snapshot parses before any weight changes, so a rejected one
/// leaves the predictor untouched.
EngineCounters load_checkpoint(std::istream& is,
                               core::PlatformPredictor& predictor);

}  // namespace mfcp::engine
