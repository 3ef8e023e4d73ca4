#include "mfcp/trainer_mfcp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "diff/kkt.hpp"
#include "matching/entropy.hpp"
#include "matching/objective.hpp"
#include "matching/penalty.hpp"
#include "matching/rounding.hpp"
#include "mfcp/regret.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "nn/fused_mlp.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mfcp::core {

namespace {

using ObjectivePtr = std::unique_ptr<matching::ContinuousObjective>;

/// One training round: N tasks with their features and measured metrics.
struct Round {
  Matrix features;     // n x d
  Matrix times;        // M x n
  Matrix reliability;  // M x n
};

Round sample_round(const sim::Dataset& data, std::size_t round_tasks,
                   Rng& rng) {
  MFCP_CHECK(round_tasks > 0 && round_tasks <= data.num_tasks(),
             "round size must be in [1, train set size]");
  const auto order = rng.permutation(data.num_tasks());
  Round round;
  round.features = Matrix(round_tasks, data.feature_dim());
  round.times = Matrix(data.num_clusters(), round_tasks);
  round.reliability = Matrix(data.num_clusters(), round_tasks);
  for (std::size_t k = 0; k < round_tasks; ++k) {
    const std::size_t j = order[k];
    for (std::size_t c = 0; c < data.feature_dim(); ++c) {
      round.features(k, c) = data.features(j, c);
    }
    for (std::size_t i = 0; i < data.num_clusters(); ++i) {
      round.times(i, k) = data.times(i, j);
      round.reliability(i, k) = data.reliability(i, j);
    }
  }
  return round;
}

/// The smoothed-max cost with the configured reliability constraint.
std::unique_ptr<matching::KktDifferentiableObjective> make_smoothed_max(
    const MfcpConfig& config, Matrix times, Matrix reliability) {
  if (config.constraint_model == ConstraintModel::kLogBarrier) {
    return std::make_unique<matching::BarrierObjective>(
        std::move(times), std::move(reliability), config.gamma,
        config.barrier, config.speedup);
  }
  // Weight of the hinge that replaces the barrier.
  constexpr double kPenaltyLambda = 2.0;
  return std::make_unique<matching::HardPenaltyObjective>(
      std::move(times), std::move(reliability), config.gamma,
      config.barrier.beta, kPenaltyLambda, config.speedup);
}

/// The configured continuous training objective over (T, A) with the
/// deployed entropic regularizer.
ObjectivePtr make_objective(const MfcpConfig& config, Matrix times,
                            Matrix reliability) {
  ObjectivePtr base;
  if (config.cost_model == CostModel::kSmoothedMax) {
    base = make_smoothed_max(config, std::move(times), std::move(reliability));
  } else {
    MFCP_CHECK(config.constraint_model == ConstraintModel::kLogBarrier,
               "linear-cost ablation uses the log barrier");
    base = std::make_unique<matching::LinearCostBarrierObjective>(
        std::move(times), std::move(reliability), config.gamma,
        config.barrier.lambda, config.speedup);
  }
  return std::make_unique<matching::EntropicObjective>(std::move(base),
                                                       matching::kEntropyTau);
}

/// The same objective, KKT-differentiable, for MFCP-AD's smoothed-max
/// cost.
std::unique_ptr<matching::KktDifferentiableObjective> make_kkt_objective(
    const MfcpConfig& config, Matrix times, Matrix reliability) {
  return std::make_unique<matching::EntropicKktObjective>(
      make_smoothed_max(config, std::move(times), std::move(reliability)),
      matching::kEntropyTau);
}

/// Clip threshold (L2 norm) for the per-round matching-layer seed
/// gradients dL/dt̂_i, dL/dâ_i — the barrier can spike them when a round
/// sits near the reliability boundary.
constexpr double kSeedClipNorm = 1.0;

/// Scales `g` so its L2 norm does not exceed kSeedClipNorm.
void clip_norm(Matrix& g) {
  double sq = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    sq += g[i] * g[i];
  }
  const double norm = std::sqrt(sq);
  if (norm > kSeedClipNorm) {
    g *= kSeedClipNorm / norm;
  }
}

/// dL/dy for one head's predictions y: the seed plus, with an anchor, the
/// gradient of anchor_weight · MSE(y, target), both scaled by
/// batch_scale (the 1/rounds_per_step factor). The two terms are summed
/// in the order a tape backward adds them into y's gradient, the MSE
/// term first, so the network's gradients keep the tape's bits.
std::vector<double> output_gradient(const MfcpConfig& config,
                                    double batch_scale, const Matrix& seed,
                                    std::span<const double> y,
                                    std::span<const double> target) {
  const std::size_t n = y.size();
  const double c = 2.0 / static_cast<double>(n) *
                   (batch_scale * config.anchor_weight);
  std::vector<double> dy(n);
  for (std::size_t j = 0; j < n; ++j) {
    dy[j] = batch_scale * seed[j];
    if (config.anchor_weight > 0.0) {
      dy[j] = (0.0 + c * (y[j] - target[j])) + dy[j];
    }
  }
  return dy;
}

/// Applies row `cluster_index` of the seed gradients (plus the MSE anchor)
/// through that cluster's two networks, whose predictions over the
/// round's tasks were `t_hat` and `a_hat`.
void backward_cluster(const MfcpConfig& config, const Round& round,
                      std::size_t cluster_index, ClusterPredictor& cluster,
                      std::span<const double> t_hat,
                      std::span<const double> a_hat,
                      const diff::Gradients& seeds, double batch_scale) {
  const std::size_t n = round.features.rows();
  Matrix seed_t(n, 1);
  Matrix seed_a(n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    seed_t(j, 0) = seeds.dt(cluster_index, j);
    seed_a(j, 0) = seeds.da(cluster_index, j);
  }
  clip_norm(seed_t);
  clip_norm(seed_a);

  nn::fused_backward(cluster.time_model(), round.features,
                     output_gradient(config, batch_scale, seed_t, t_hat,
                                     round.times.row_span(cluster_index)),
                     cluster.time_scale());
  nn::fused_backward(
      cluster.reliability_model(), round.features,
      output_gradient(config, batch_scale, seed_a, a_hat,
                      round.reliability.row_span(cluster_index)),
      1.0);
}

/// The inner problem of a round (Eq. 5/12): every cluster's row of
/// (T̂, Â) holds predictions.
struct InnerProblem {
  const Round& round;
  const matching::ContinuousObjective& truth;  // true-metric objective
  Matrix t_pred;
  Matrix a_pred;
};

/// An inner problem's optimum X*(T̂, Â) and its seed gradients dL/dT̂,
/// dL/dÂ (M x N).
struct InnerSolution {
  Matrix x_star;
  diff::Gradients seeds;
};

/// All that tells MFCP-AD and MFCP-FG apart: how an inner problem is
/// solved and differentiated. It may draw from the trainer's generator.
using InnerSolver = std::function<InnerSolution(const InnerProblem&, Rng&)>;

MfcpTrainResult train_decision_focused(PlatformPredictor& predictor,
                                       const sim::Dataset& train,
                                       const MfcpConfig& config,
                                       const InnerSolver& solve_inner) {
  MFCP_CHECK(train.num_clusters() == predictor.num_clusters(),
             "dataset and predictor disagree on cluster count");
  MFCP_CHECK(config.rounds_per_step > 0, "need at least one round per step");
  Stopwatch watch;
  MfcpTrainResult result;
  Rng rng(config.seed);

  if (config.pretrain) {
    constexpr double kPretrainLearningRate = 1e-2;
    TsmConfig pre;
    pre.epochs = config.pretrain_epochs;
    pre.learning_rate = kPretrainLearningRate;
    pre.seed = rng.next_u64();
    train_tsm(predictor, train, pre);
  }

  const std::size_t m = predictor.num_clusters();
  std::vector<nn::Adam> time_opts;
  std::vector<nn::Adam> rel_opts;
  for (std::size_t i = 0; i < m; ++i) {
    time_opts.emplace_back(predictor.cluster(i).time_model().parameters(),
                           config.learning_rate);
    rel_opts.emplace_back(
        predictor.cluster(i).reliability_model().parameters(),
        config.learning_rate);
  }

  const std::size_t n = config.round_tasks;
  const double batch_scale = 1.0 / static_cast<double>(config.rounds_per_step);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (std::size_t i = 0; i < m; ++i) {
      predictor.cluster(i).time_model().zero_grad();
      predictor.cluster(i).reliability_model().zero_grad();
    }

    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < config.rounds_per_step; ++b) {
      const Round round = sample_round(train, n, rng);
      // True-metric objective: defines the loss and its dL/dX* term.
      const auto truth =
          make_objective(config, round.times, round.reliability);
      const Matrix x_true = matching::solve_mirror(*truth, config.solver).x;

      InnerProblem problem{round, *truth, Matrix(m, n), Matrix(m, n)};
      for (std::size_t i = 0; i < m; ++i) {
        predictor.cluster(i).predict_time_row(round.features,
                                              problem.t_pred.row_span(i));
        predictor.cluster(i).predict_reliability_row(
            round.features, problem.a_pred.row_span(i));
      }
      const InnerSolution inner = solve_inner(problem, rng);
      epoch_loss += surrogate_regret(*truth, inner.x_star, x_true);

      for (std::size_t i = 0; i < m; ++i) {
        backward_cluster(config, round, i, predictor.cluster(i),
                         problem.t_pred.row_span(i),
                         problem.a_pred.row_span(i), inner.seeds, batch_scale);
      }
    }

    // Alternating flavour of §3.3: ω and φ steps consume partial
    // derivatives computed with the other head's predictions held fixed.
    for (std::size_t i = 0; i < m; ++i) {
      time_opts[i].step();
      rel_opts[i].step();
    }
    result.loss_history.push_back(
        epoch_loss / static_cast<double>(config.rounds_per_step));
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace

MfcpTrainResult train_mfcp_ad(PlatformPredictor& predictor,
                              const sim::Dataset& train,
                              const MfcpConfig& config) {
  // The linear cost's argmin is piecewise constant, so no useful analytic
  // sensitivity exists (MFCP-FG covers that ablation); a decaying speedup
  // makes the problem non-convex.
  MFCP_CHECK(config.cost_model == CostModel::kSmoothedMax,
             "MFCP-AD requires the smoothed-max cost model");
  MFCP_CHECK(config.speedup.is_constant(),
             "MFCP-AD requires exclusive execution (convex case)");
  const InnerSolver solve_inner = [&config](const InnerProblem& problem,
                                            Rng&) {
    const auto objective =
        make_kkt_objective(config, problem.t_pred, problem.a_pred);
    InnerSolution out;
    out.x_star = matching::solve_mirror(*objective, config.solver).x;
    const Matrix upstream =
        surrogate_upstream_gradient(problem.truth, out.x_star);
    auto vjp = diff::kkt_vjp(*objective, out.x_star, upstream);
    out.seeds = {std::move(vjp.grad_t), std::move(vjp.grad_a)};
    return out;
  };
  return train_decision_focused(predictor, train, config, solve_inner);
}

MfcpTrainResult train_mfcp_fg(PlatformPredictor& predictor,
                              const sim::Dataset& train,
                              const MfcpConfig& config, ThreadPool* pool) {
  // Solver for Algorithm 2's inner matching problems: minimizes the
  // configured objective over relaxed assignments for arbitrary (T, A).
  // Perturbed inputs may stray outside the valid metric ranges; clamp.
  const diff::MatchingSolver solve_matching = [&config](const Matrix& t,
                                                        const Matrix& a) {
    Matrix tc = t;
    Matrix ac = a;
    for (std::size_t k = 0; k < tc.size(); ++k) {
      tc[k] = std::max(tc[k], 1e-4);
      ac[k] = std::clamp(ac[k], 0.0, 1.0);
    }
    const auto objective =
        make_objective(config, std::move(tc), std::move(ac));
    return matching::solve_mirror(*objective, config.solver).x;
  };

  const InnerSolver solve_inner = [&](const InnerProblem& problem,
                                     Rng& rng) {
    InnerSolution out;
    out.x_star = solve_matching(problem.t_pred, problem.a_pred);
    Rng sample_rng = rng.split();
    // The deployed pipeline loss of a relaxed assignment: true makespan
    // of its rounding plus a hinge on the true reliability shortfall
    // (both per task). Randomized smoothing over the Gaussian
    // perturbations handles the piecewise-constant rounding.
    const auto deployed = [&config, &problem](const Matrix& x) {
      const auto dep = matching::round_argmax(x);
      const double ms =
          matching::makespan(dep, problem.round.times, config.speedup);
      const double rel =
          matching::average_reliability(dep, problem.round.reliability);
      const double hinge = std::max(0.0, config.gamma - rel);
      return ms / static_cast<double>(config.round_tasks) +
             config.fg_reliability_penalty * hinge;
    };
    const diff::ScalarLoss loss = [deployed, &solve_matching](
                                      const Matrix& t, const Matrix& a) {
      return deployed(solve_matching(t, a));
    };
    out.seeds = diff::estimate_gradients(
        loss, problem.t_pred, problem.a_pred, deployed(out.x_star), 0,
        problem.t_pred.rows(), config.forward_gradient, sample_rng, pool);
    return out;
  };
  return train_decision_focused(predictor, train, config, solve_inner);
}

}  // namespace mfcp::core
