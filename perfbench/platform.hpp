// The platform pieces both workload families share: the seeded scenario
// (platform, embedder, pretrained predictor), a round-journal sink that
// timestamps each line as the engine writes it, and TracedRounds, which
// repeats the engine's round body through the same public functions
// with a span around each call.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "mfcp/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "perfbench.hpp"
#include "sim/embedding.hpp"
#include "sim/platform.hpp"

namespace perfbench {

namespace sim = mfcp::sim;
namespace core = mfcp::core;
namespace engine = mfcp::engine;

/// Environment + pretrained predictor, built exactly as
/// examples/online_platform builds its own at start-up (fixed profiling
/// data and initialisation: part of the system, not of the workload).
struct Scenario {
  sim::Platform platform;
  sim::PseudoGnnEmbedder embedder;
  std::unique_ptr<core::PlatformPredictor> pretrained;
};

[[nodiscard]] Scenario make_scenario(std::size_t num_clusters);

/// A fresh predictor holding the pretrained weights (bit-exact copy).
[[nodiscard]] std::unique_ptr<core::PlatformPredictor> clone_predictor(
    const Scenario& scenario);

/// std::streambuf behind the engine's round journal: forwards every line
/// to `out` as "<ns>\t<line>", stamped with the steady-clock time it was
/// completed (the round's close). Only the line being written is held.
class StampedLines : public std::streambuf {
 public:
  explicit StampedLines(std::ostream& out) : out_(out) {}

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void put(char c);
  std::ostream& out_;
  std::string current_;
};

/// One journal record, as the benchmark needs it.
struct JournalRound {
  std::int64_t ns = 0;  // wall close time (steady clock)
  std::uint64_t round = 0;
  double close_hours = 0.0;
  std::size_t batch = 0;
  bool size_trigger = false;
  double regret = 0.0;
  std::string text;  // the line as the engine wrote it
};
/// Reads the round records of a StampedLines stream.
[[nodiscard]] std::vector<JournalRound> parse_journal(std::istream& in);

/// Replays rounds through the engine's public layer functions with a
/// span around each call: embed, predict, both solves on the pool,
/// evaluation, dispatch, feedback, retraining and attribution, in the
/// order and with the random streams OnlineEngine::run_round uses, so
/// the same batches give the same regret.
class TracedRounds {
 public:
  TracedRounds(const Scenario& scenario, const engine::EngineConfig& config,
               mfcp::ThreadPool& pool, Tracer& tracer);

  /// Applies every scheduled drift event due by `hours`.
  void advance(double hours);

  struct Outcome {
    double regret = 0.0;
    bool retrained = false;
  };
  /// Runs one round on `tasks` under span `parent`; `lost` are the
  /// arrivals lost since the previous round (the admission term).
  Outcome round(const std::vector<sim::TaskDescriptor>& tasks,
                const std::vector<sim::TaskDescriptor>& lost,
                std::int32_t parent);

  [[nodiscard]] core::PlatformPredictor& predictor() { return *predictor_; }
  [[nodiscard]] std::size_t retrains() const {
    return trainer_.retrain_count();
  }
  /// Deploy-solve iteration counts, and converged flags of every solve.
  [[nodiscard]] const std::vector<double>& iterations() const {
    return iterations_;
  }
  [[nodiscard]] const std::vector<double>& converged() const {
    return converged_;
  }

 private:
  const Scenario& scenario_;
  engine::EngineConfig config_;
  mfcp::ThreadPool& pool_;
  Tracer& tracer_;
  sim::Platform platform_;
  std::unique_ptr<core::PlatformPredictor> predictor_;
  engine::OnlineTrainer trainer_;
  mfcp::Rng dispatch_rng_;
  std::size_t next_drift_ = 0;
  std::vector<double> iterations_;
  std::vector<double> converged_;
};

/// The per-layer metrics both workload families report. The traced run
/// supplies the spans; the untraced run supplies the counts below.
struct UntracedFacts {
  double batch_mean = 0.0;
  double size_trigger_share = 0.0;
  std::vector<double> queue_wait_ms;  // per task: accepted -> round closed
  double expired = 0.0;
  double fsyncs_per_task = 0.0;
  double wal_bytes_per_task = 0.0;
  double busy_429_share = 0.0;
  double connections_shed = 0.0;
  double transport_errors = 0.0;
  double offered_per_s = 0.0;
  std::vector<double> late_ms;
  std::vector<double> submit_ms;
  std::vector<double> dispatch_ms;
  double fail_share = 0.0;
  double regret_per_task = 0.0;
  /// What `trace.overhead_pct` compares the traced run with. kLoop
  /// (replay): the untraced run loop's wall time, against the traced
  /// loop's (storage spans left out, as it does no work there). kStages
  /// (gateway workloads, whose untraced rounds are not clocked end to
  /// end): the engine's own stage clocks (embed, predict, match, dispatch,
  /// attribute, retrain), against the traced spans of those stages.
  enum class Baseline { kLoop, kStages };
  Baseline baseline = Baseline::kLoop;
  double baseline_ns = 0.0;
};
void add_layer_metrics(Result& result, const Tracer& tracer,
                       const TracedRounds& rounds, const UntracedFacts& facts);

}  // namespace perfbench
