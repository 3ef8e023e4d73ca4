// Regret (paper Eq. 6) and the deployment matching pipeline.
//
// Evaluation regret compares, under the TRUE metrics, the makespan of the
// assignment derived from predictions against the true-optimal assignment:
//     regret = ( f(X*(T̂, Â), T) - f(X*(T, A), T) ) / N.
// X*(T̂, Â) is produced exactly the way the platform would deploy (§3.2):
// the continuous barrier solve with the entropy weight the predictors were
// trained through (matching::kEntropyTau), argmax rounding, and an
// optional local search, all against the *predicted* metrics (the
// platform cannot see the truth). X*(T, A) is the same operator applied
// to the true metrics (evaluate_predictions), or the exact discrete
// optimum from branch-and-bound (the ExactSolverConfig overload).
#pragma once

#include "matching/barrier.hpp"
#include "matching/solver_exact.hpp"
#include "matching/solver_mirror.hpp"
#include "obs/attribution.hpp"

namespace mfcp::core {

struct EvaluationConfig {
  /// Deployment matching benefits from a sharper smooth-max than training
  /// (no gradients needed, just solution quality).
  matching::BarrierConfig barrier{.beta = 8.0, .lambda = 0.1,
                                  .slack_epsilon = 1e-3};
  matching::MirrorSolverConfig solver;
  /// Table-1 ablation (1): deploy with the linear total-time cost instead
  /// of the smoothed max-makespan (the matching itself is ablated, not
  /// just the training gradient).
  bool linear_cost = false;
  /// Optional discrete polish after rounding (single-task moves and
  /// pairwise swaps under the *predicted* metrics). Off by default: the
  /// paper deploys the rounded continuous solution directly, and the
  /// polish interposes a non-differentiated search between the relaxed
  /// solution the predictors are trained through and the deployed
  /// decision.
  bool local_search = false;
};

/// Continuous-solve + round + repair + (optional) local search, all against
/// the *predicted* problem. This is what the platform ships.
matching::Assignment deploy_matching(const matching::MatchingProblem& predicted,
                                     const EvaluationConfig& config);

/// deploy_matching with the intermediate products kept: the problem the
/// solve ran against, the relaxed solver output, and the rounded
/// assignment. attribute_regret needs all three to price each pipeline
/// stage separately; `assignment` is bit-identical to what
/// deploy_matching returns for the same inputs (deploy_matching is
/// implemented on top of this).
struct DeployTrace {
  matching::MatchingProblem problem;
  matching::SolveResult relaxed;
  matching::Assignment assignment;
};

DeployTrace deploy_matching_traced(const matching::MatchingProblem& predicted,
                                   const EvaluationConfig& config);

/// Inputs of the attribution beyond the two traces. Its polish (each
/// chain's relaxed solve continued, warm-started, for at most 16
/// iterations at the solver's tolerance) is skipped for a chain whose
/// solve converged; the decomposition telescopes at any polish depth.
struct AttributionConfig {
  /// Counterfactual loss of tasks dropped/expired before this round,
  /// passed through into the breakdown's admission_gap (the caller owns
  /// the queue; the decomposition just keeps the books additive).
  double admission_loss = 0.0;
};

/// Decomposes one round's realized regret into the additive terms of
/// obs::RegretBreakdown. `deployed` must be the trace of the prediction-
/// driven solve, `reference` the same-operator solve on the true metrics;
/// both are assumed to have used `config` (as the engine does). All terms
/// are evaluated under `truth`'s hard makespan, per task:
///
///   pred_gap     = ( f(x̂⁺_dep) − f(x̂⁺_ref) ) / N
///   solver_gap   = ( [f(x̂_dep) − f(x̂⁺_dep)] − [f(x̂_ref) − f(x̂⁺_ref)] ) / N
///   rounding_gap = ( [f(X_dep) − f(x̂_dep)] − [f(X_ref) − f(x̂_ref)] ) / N
///
/// where x̂ is each chain's relaxed solver output, x̂⁺ its polished
/// continuation, and X its rounded assignment. The three telescope to
/// ( f(X_dep) − f(X_ref) ) / N — exactly the realized round regret — so
/// with admission_loss added on both sides the breakdown satisfies
/// RegretBreakdown::exact() up to floating-point error.
obs::RegretBreakdown attribute_regret(const matching::MatchingProblem& truth,
                                      const DeployTrace& deployed,
                                      const DeployTrace& reference,
                                      const EvaluationConfig& config,
                                      const AttributionConfig& attr = {});

struct MatchOutcome {
  double regret = 0.0;           // per-task makespan gap vs true optimum
  double reliability = 0.0;      // achieved average TRUE reliability
  double utilization = 0.0;      // with true times
  double makespan = 0.0;         // of the deployed assignment (true times)
  double optimal_makespan = 0.0; // of the true-optimal assignment
  bool feasible = false;         // constraint holds under true reliability
};

/// Scores a deployed assignment against an explicit reference assignment
/// (regret is the per-task makespan gap between the two under the truth).
MatchOutcome evaluate_assignment(const matching::MatchingProblem& truth,
                                 const matching::Assignment& deployed,
                                 const matching::Assignment& reference);

/// Scores a deployed assignment against the exact discrete optimum
/// (branch & bound) — the diagnostic variant; evaluate_predictions uses
/// the paper's same-operator reference instead.
MatchOutcome evaluate_assignment(const matching::MatchingProblem& truth,
                                 const matching::Assignment& deployed,
                                 const matching::ExactSolverConfig& exact = {});

/// Full pipeline: deploy on (t_hat, a_hat), score against `truth`.
MatchOutcome evaluate_predictions(const matching::MatchingProblem& truth,
                                  const Matrix& t_hat, const Matrix& a_hat,
                                  const EvaluationConfig& config);

/// Training-time regret surrogate (Eq. 12 upper level): the value
/// ( F(x_pred, T, A) - F(x_true_opt, T, A) ) / N with F the true-metric
/// barrier objective, and its gradient with respect to x_pred — the
/// dL/dX* term of the chain rule (Eq. 7).
double surrogate_regret(const matching::ContinuousObjective& true_objective,
                        const Matrix& x_pred, const Matrix& x_true_opt);

Matrix surrogate_upstream_gradient(
    const matching::ContinuousObjective& true_objective, const Matrix& x_pred);

}  // namespace mfcp::core
