// Shared configuration for the decision-focused (MFCP) trainers.
//
// Every training solve predicts all M clusters' rows at once (the bilevel
// problem of Eq. 5/12) with the entropy weight the platform deploys with
// (matching::kEntropyTau), MFCP-FG differentiates the deployed pipeline
// loss, and the per-round seed gradients are clipped to L2 norm 1.
#pragma once

#include <cstdint>

#include "diff/zeroth_order.hpp"
#include "matching/barrier.hpp"
#include "matching/solver_mirror.hpp"
#include "sim/speedup.hpp"

namespace mfcp::core {

/// Which time-cost function the training objective uses (Table 1 row (1)
/// ablates the smoothed max down to a linear total).
enum class CostModel { kSmoothedMax, kLinearTotal };

/// How the reliability constraint enters the objective (Table 1 row (2)
/// ablates the log barrier to a hard hinge penalty).
enum class ConstraintModel { kLogBarrier, kHardPenalty };

struct MfcpConfig {
  std::size_t epochs = 80;
  /// N: tasks per matching round sampled from the training set (the paper
  /// trains on rounds of the same size it matches at deployment).
  std::size_t round_tasks = 5;
  /// Rounds averaged per parameter update. A single round's regret
  /// gradient is extremely noisy (N is small); averaging B rounds divides
  /// the variance by B at B times the solve cost.
  std::size_t rounds_per_step = 4;
  double learning_rate = 3e-3;
  double gamma = 0.8;

  /// Weight of an auxiliary MSE term added to the regret loss. Pure regret
  /// training leaves the predictors unanchored (any â drift that does not
  /// change the in-sample matching is free), which degrades them as
  /// predictors; a small anchor keeps them calibrated. Set to 0 for the
  /// paper's pure-regret objective.
  double anchor_weight = 0.1;

  CostModel cost_model = CostModel::kSmoothedMax;
  ConstraintModel constraint_model = ConstraintModel::kLogBarrier;

  matching::BarrierConfig barrier;
  matching::MirrorSolverConfig solver{.max_iterations = 600,
                                      .learning_rate = 0.8,
                                      .tolerance = 1e-7,
                                      .floor = 1e-12};
  sim::SpeedupCurve speedup = sim::SpeedupCurve::exclusive();

  /// Zeroth-order estimator settings (MFCP-FG only). The time delta is on
  /// the hour scale of the predictions; the reliability delta on the
  /// probability scale.
  diff::ForwardGradientConfig forward_gradient{.samples = 16,
                                               .delta = 0.5,
                                               .delta_reliability = 0.05};

  /// Hinge weight (hours per unit reliability shortfall per task) in
  /// MFCP-FG's loss, the *deployed* pipeline loss: the true makespan of the
  /// rounded assignment plus this hinge on the true reliability shortfall.
  double fg_reliability_penalty = 2.0;

  /// Warm start from MSE pretraining (see trainer_tsm.hpp).
  bool pretrain = true;
  std::size_t pretrain_epochs = 300;
  double pretrain_learning_rate = 1e-2;

  std::uint64_t seed = 0xacdcULL;
};

struct MfcpTrainResult {
  std::vector<double> loss_history;  // surrogate regret per epoch
  double seconds = 0.0;
};

}  // namespace mfcp::core
