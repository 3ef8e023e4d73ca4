// Experiment orchestration: everything the bench harnesses need to
// regenerate the paper's tables and figures.
//
// A run fixes a cluster environment (setting A/B/C), builds one profiled
// dataset shared by all methods, trains each method on the same train
// split, then evaluates on repeated matching rounds sampled from the test
// split — reporting Regret / Reliability / Utilization as mean ± std.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mfcp/baseline_tam.hpp"
#include "mfcp/baseline_ucb.hpp"
#include "mfcp/metrics.hpp"
#include "mfcp/mfcp_config.hpp"
#include "mfcp/predictor.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/dataset.hpp"

namespace mfcp::core {

enum class Method { kTam, kTsm, kUcb, kMfcpAd, kMfcpFg };
std::string to_string(Method method);

/// Gradient route for MFCP variants (Table 1 row (3) contrasts the two).
enum class GradMode { kAnalytic, kForward };

struct ExperimentConfig {
  sim::Setting setting = sim::Setting::kA;
  std::size_t num_clusters = 3;
  /// N: tasks matched per round (the paper's headline uses 5).
  std::size_t round_tasks = 5;
  std::size_t train_tasks = 160;
  std::size_t test_tasks = 80;
  /// Matching rounds sampled from the test split per method.
  std::size_t test_rounds = 20;
  double gamma = 0.8;
  sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive();

  PredictorConfig predictor;
  TsmConfig tsm;
  /// Decision-focused settings for MFCP-FG (and any FG-gradient variant).
  MfcpConfig mfcp;
  /// Settings for MFCP-AD. The analytic route differentiates the relaxed
  /// surrogate, whose link to the deployed discrete decision is weaker
  /// than the FG discrete loss — gentler steps and a stronger anchor keep
  /// it a strict refinement of its TSM warm start.
  MfcpConfig mfcp_ad = [] {
    MfcpConfig c;
    c.learning_rate = 5e-4;
    c.anchor_weight = 0.3;
    c.epochs = 60;
    return c;
  }();
  EvaluationConfig eval;

  std::uint64_t seed = 42;
};

/// The environment every method shares within one experiment.
struct ExperimentContext {
  sim::Platform platform;
  sim::PseudoGnnEmbedder embedder;
  sim::Dataset train;
  sim::Dataset test;
};

ExperimentContext make_context(const ExperimentConfig& config);

struct MethodResult {
  Method method = Method::kTsm;
  std::string label;
  MetricsAccumulator metrics;
  double train_seconds = 0.0;
};

/// Predictions for one round of features: (T̂, Â), both M x n.
using PredictionFn =
    std::function<std::pair<Matrix, Matrix>(const Matrix& features)>;

/// Evaluates an arbitrary prediction rule over the configured test rounds.
MetricsAccumulator evaluate_rule(const PredictionFn& predict,
                                 const ExperimentContext& ctx,
                                 const ExperimentConfig& config);

/// Trains (where applicable) and evaluates one of the five paper methods.
MethodResult run_method(Method method, const ExperimentContext& ctx,
                        const ExperimentConfig& config,
                        ThreadPool* pool = nullptr);

/// All requested methods on the shared context.
std::vector<MethodResult> run_methods(const std::vector<Method>& methods,
                                      const ExperimentContext& ctx,
                                      const ExperimentConfig& config,
                                      ThreadPool* pool = nullptr);

/// MFCP variant with explicit objective/gradient knobs (Table 1 ablation).
MethodResult run_mfcp_variant(CostModel cost, ConstraintModel constraint,
                              GradMode grad, std::string label,
                              const ExperimentContext& ctx,
                              const ExperimentConfig& config,
                              ThreadPool* pool = nullptr);

}  // namespace mfcp::core
