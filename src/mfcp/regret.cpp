#include "mfcp/regret.hpp"

#include <memory>

#include "matching/entropy.hpp"
#include "matching/penalty.hpp"
#include "matching/objective.hpp"
#include "matching/rounding.hpp"
#include "matching/solver_dual.hpp"
#include "support/check.hpp"

namespace mfcp::core {

namespace {

/// The deployment objective: barrier (or ablated linear) cost, optionally
/// wrapped in the entropic regularizer. Shared by the deploy solve and
/// the attribution's polish continuation, which must minimize the SAME
/// smooth objective for the solver gap to mean anything.
std::unique_ptr<matching::ContinuousObjective> make_deploy_objective(
    const matching::MatchingProblem& problem, const EvaluationConfig& config) {
  std::unique_ptr<matching::ContinuousObjective> objective;
  if (config.linear_cost) {
    objective = std::make_unique<matching::LinearCostBarrierObjective>(
        problem, config.barrier.lambda);
  } else {
    objective = std::make_unique<matching::BarrierObjective>(
        problem, config.barrier);
  }
  if (config.entropy_tau > 0.0) {
    objective = std::make_unique<matching::EntropicObjective>(
        std::move(objective), config.entropy_tau);
  }
  return objective;
}

}  // namespace

DeployTrace deploy_matching_traced(const matching::MatchingProblem& predicted,
                                   const EvaluationConfig& config) {
  predicted.validate();
  // Paper-faithful deployment (§3.2): solve the continuous barrier
  // relaxation, round, and repair feasibility — all against the predicted
  // metrics. Keeping deployment identical to the operator the training
  // gradients differentiate through is essential: a smarter deployment
  // heuristic (e.g. racing an LPT greedy) decouples the learned predictor
  // from the decisions it is being trained for.
  const auto objective = make_deploy_objective(predicted, config);
  DeployTrace trace;
  trace.problem = predicted;
  // The default objective is solved exactly in its price dual; the
  // linear-cost ablation, τ = 0 and a decaying speedup go to mirror
  // descent (solve_relaxed reads the objective's structure).
  trace.relaxed = matching::solve_relaxed(*objective, config.solver);
  // Argmax rounding only. The paper folds the reliability constraint into
  // the barrier term of the matching objective and reports achieved
  // reliability as a separate metric (§4.1.3) — there is no post-hoc
  // feasibility repair, and adding one (or any discrete polish) interposes
  // a non-differentiated transformation between the relaxed solution the
  // predictors are trained through and the deployed decision.
  trace.assignment = matching::round_argmax(trace.relaxed.x);
  if (config.local_search) {
    trace.assignment =
        matching::improve_local_search(trace.assignment, predicted);
  }
  return trace;
}

matching::Assignment deploy_matching(
    const matching::MatchingProblem& predicted,
    const EvaluationConfig& config) {
  return deploy_matching_traced(predicted, config).assignment;
}

obs::RegretBreakdown attribute_regret(const matching::MatchingProblem& truth,
                                      const DeployTrace& deployed,
                                      const DeployTrace& reference,
                                      const EvaluationConfig& config,
                                      const AttributionConfig& attr) {
  truth.validate();
  const double n = static_cast<double>(truth.num_tasks());

  // Continue each chain's own smooth objective from its solver output to
  // a tighter stationary point — the stand-in for the converged optimum.
  // Warm-starting makes this cheap when the deploy solve already
  // converged (the polish exits at its first residual check).
  matching::MirrorSolverConfig polish = config.solver;
  polish.max_iterations = attr.polish_iterations;
  polish.tolerance = attr.polish_tolerance > 0.0 ? attr.polish_tolerance
                                                 : config.solver.tolerance;
  // A chain whose solve already met the inherited tolerance would pass the
  // polish's first residual check unchanged — skip the solve entirely (the
  // common converged case costs nothing). An explicitly tightened
  // polish_tolerance always polishes.
  const auto polish_chain = [&](const DeployTrace& trace) {
    if (trace.relaxed.converged && attr.polish_tolerance <= 0.0) {
      return trace.relaxed.x;
    }
    const auto objective = make_deploy_objective(trace.problem, config);
    return matching::solve_mirror_from(*objective, trace.relaxed.x, polish).x;
  };
  const Matrix dep_polished = polish_chain(deployed);
  const Matrix ref_polished = polish_chain(reference);

  // Everything is priced under the TRUE hard makespan so the terms add in
  // realized-regret units, whatever smooth objective the solves used.
  const auto f = [&](const Matrix& x) {
    return matching::makespan(x, truth.times, truth.speedup);
  };
  const double f_dep_relaxed = f(deployed.relaxed.x);
  const double f_ref_relaxed = f(reference.relaxed.x);
  const double f_dep_polished = f(dep_polished);
  const double f_ref_polished = f(ref_polished);
  const double dep_rounding = matching::rounding_gap(
      deployed.relaxed.x, deployed.assignment, truth.times, truth.speedup);
  const double ref_rounding = matching::rounding_gap(
      reference.relaxed.x, reference.assignment, truth.times, truth.speedup);

  obs::RegretBreakdown out;
  out.pred_gap = (f_dep_polished - f_ref_polished) / n;
  out.solver_gap =
      ((f_dep_relaxed - f_dep_polished) - (f_ref_relaxed - f_ref_polished)) /
      n;
  out.rounding_gap = (dep_rounding - ref_rounding) / n;
  out.admission_gap = attr.admission_loss;
  // The invariant's independent right side: end-to-end realized regret
  // (integral deployed vs integral reference makespan) plus admission.
  out.total = (matching::makespan(deployed.assignment, truth.times,
                                  truth.speedup) -
               matching::makespan(reference.assignment, truth.times,
                                  truth.speedup)) /
                  n +
              attr.admission_loss;
  out.solver_residual = deployed.relaxed.residual;
  out.valid = true;
  return out;
}

MatchOutcome evaluate_assignment(const matching::MatchingProblem& truth,
                                 const matching::Assignment& deployed,
                                 const matching::Assignment& reference) {
  truth.validate();
  MatchOutcome out;
  out.makespan = matching::makespan(deployed, truth.times, truth.speedup);
  out.optimal_makespan =
      matching::makespan(reference, truth.times, truth.speedup);
  out.regret = (out.makespan - out.optimal_makespan) /
               static_cast<double>(truth.num_tasks());
  out.reliability =
      matching::average_reliability(deployed, truth.reliability);
  out.utilization =
      matching::utilization(deployed, truth.times, truth.speedup);
  out.feasible = matching::is_feasible(deployed, truth);
  return out;
}

MatchOutcome evaluate_assignment(const matching::MatchingProblem& truth,
                                 const matching::Assignment& deployed,
                                 const matching::ExactSolverConfig& exact) {
  truth.validate();
  const auto optimal = matching::solve_exact(truth, exact);
  return evaluate_assignment(truth, deployed, optimal.assignment);
}

MatchOutcome evaluate_predictions(const matching::MatchingProblem& truth,
                                  const Matrix& t_hat, const Matrix& a_hat,
                                  const EvaluationConfig& config) {
  const auto predicted = truth.with_metrics(t_hat, a_hat);
  const auto deployed = deploy_matching(predicted, config);
  // Paper Eq. 6: the reference X*(T, A) comes from the SAME matching
  // operator applied to the true metrics — not from an exact combinatorial
  // solver. This cancels the operator's rounding suboptimality (identical
  // on both sides per round) and isolates prediction-induced regret; use
  // the ExactSolverConfig overload of evaluate_assignment to measure
  // against the true discrete optimum instead. The reference always uses
  // the *standard* (max-makespan) matching: an ablated deployment (e.g.
  // linear cost) is exactly what regret should expose, not cancel.
  EvaluationConfig reference_config = config;
  reference_config.linear_cost = false;
  const auto reference = deploy_matching(truth, reference_config);
  return evaluate_assignment(truth, deployed, reference);
}

double surrogate_regret(const matching::ContinuousObjective& true_objective,
                        const Matrix& x_pred, const Matrix& x_true_opt) {
  const double n = static_cast<double>(true_objective.num_tasks());
  return (true_objective.value(x_pred) - true_objective.value(x_true_opt)) /
         n;
}

Matrix surrogate_upstream_gradient(
    const matching::ContinuousObjective& true_objective, const Matrix& x_pred) {
  Matrix g = true_objective.grad_x(x_pred);
  g *= 1.0 / static_cast<double>(true_objective.num_tasks());
  return g;
}

}  // namespace mfcp::core
