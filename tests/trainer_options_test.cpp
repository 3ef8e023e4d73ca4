// Coverage of the trainer/evaluation configuration matrix: every
// documented knob must produce a working training run with finite losses
// and a valid evaluation, including the paper-faithful settings that our
// defaults deviate from (bare relaxation, per-cluster row-swap, relaxed
// FG surrogate).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

#include "mfcp/experiment.hpp"
#include "mfcp/trainer_mfcp.hpp"
#include "support/check.hpp"

namespace mfcp::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.num_clusters = 3;
  cfg.round_tasks = 4;
  cfg.train_tasks = 40;
  cfg.test_tasks = 20;
  cfg.test_rounds = 4;
  cfg.gamma = 0.7;
  cfg.predictor.hidden = {4};
  cfg.tsm.epochs = 60;
  cfg.mfcp.epochs = 3;
  cfg.mfcp.rounds_per_step = 2;
  cfg.mfcp.pretrain_epochs = 60;
  cfg.mfcp.forward_gradient.samples = 3;
  cfg.mfcp.solver.max_iterations = 150;
  cfg.eval.solver.max_iterations = 300;
  return cfg;
}

MfcpConfig trainer_config(const ExperimentConfig& cfg) {
  MfcpConfig m = cfg.mfcp;
  m.round_tasks = cfg.round_tasks;
  m.gamma = cfg.gamma;
  return m;
}

void expect_finite_losses(const MfcpTrainResult& result, std::size_t epochs) {
  ASSERT_EQ(result.loss_history.size(), epochs);
  for (double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(TrainerOptions, AdPerClusterRowSwapMode) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(1);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.joint_prediction = false;  // Algorithm 2 line 3 faithful mode
  expect_finite_losses(train_mfcp_ad(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, AdWithoutEntropyRunsButWarnsViaZeroGradients) {
  // Paper-faithful bare relaxation: training runs; gradients are mostly
  // zero at vertex solutions, so predictions barely move.
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(2);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.entropy_tau = 0.0;
  m.anchor_weight = 0.0;
  Matrix features(3, cfg.predictor.feature_dim, 0.3);
  const Matrix before = pred.predict_time_matrix(features);
  // Pretraining already happened inside train_mfcp_ad; compare around the
  // decision-focused phase only.
  m.pretrain = true;
  expect_finite_losses(train_mfcp_ad(pred, ctx.train, m), m.epochs);
  const Matrix after = pred.predict_time_matrix(features);
  EXPECT_EQ(before.rows(), after.rows());
}

TEST(TrainerOptions, AdWithoutAnchor) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(3);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.anchor_weight = 0.0;  // the paper's pure regret objective
  expect_finite_losses(train_mfcp_ad(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, FgRelaxedSurrogateMode) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(4);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.fg_discrete_loss = false;  // literal Algorithm-2 estimator
  expect_finite_losses(train_mfcp_fg(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, FgPerClusterDiscreteLoss) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(5);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.joint_prediction = false;
  expect_finite_losses(train_mfcp_fg(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, FgWithoutSeedClipping) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(6);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.seed_clip_norm = 0.0;  // disabled
  expect_finite_losses(train_mfcp_fg(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, SingleRoundPerStep) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(7);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.rounds_per_step = 1;
  expect_finite_losses(train_mfcp_ad(pred, ctx.train, m), m.epochs);
}

TEST(TrainerOptions, RejectsZeroRoundsPerStep) {
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  Rng rng(8);
  PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig m = trainer_config(cfg);
  m.rounds_per_step = 0;
  EXPECT_THROW(train_mfcp_ad(pred, ctx.train, m), ContractError);
  EXPECT_THROW(train_mfcp_fg(pred, ctx.train, m), ContractError);
}

// 64-bit FNV-1a over every head's weight bytes (cluster by cluster, the
// time head before the reliability head, parameters in Mlp order), then
// over the bytes of the loss history.
std::uint64_t training_digest(PlatformPredictor& predictor,
                              const MfcpTrainResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto absorb = [&h](const double* values, std::size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(values);
    for (std::size_t i = 0; i < count * sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < predictor.num_clusters(); ++i) {
    for (auto* mlp : {&predictor.cluster(i).time_model(),
                      &predictor.cluster(i).reliability_model()}) {
      for (const auto& p : mlp->parameters()) {
        absorb(p.value->data(), p.value->size());
      }
    }
  }
  absorb(result.loss_history.data(), result.loss_history.size());
  return h;
}

TEST(TrainerDigest, MatchesCommittedDigests) {
  // Every decision-focused training path, held to the bits of its
  // weights and loss history. The surrogate runs set delta_reliability
  // to 0, which makes Â's perturbation the time delta. Like the
  // TSM digests these depend on libm (softplus, sigmoid, the barrier's
  // logs). Never update a digest to make this pass on unchanged code.
  enum class Trainer { kAd, kFg, kFgPooled };
  struct Case {
    const char* name;
    Trainer trainer;
    std::function<void(MfcpConfig&)> adjust;
    std::uint64_t digest;
  };
  const auto per_cluster = [](MfcpConfig& m) { m.joint_prediction = false; };
  const auto surrogate = [](MfcpConfig& m) {
    m.fg_discrete_loss = false;
    m.forward_gradient.delta_reliability = 0.0;
  };
  const Case cases[] = {
      {"ad joint", Trainer::kAd, [](MfcpConfig&) {},
       0x81499d436123d983ULL},
      {"ad per-cluster", Trainer::kAd, per_cluster,
       0x70b2da897bf336bdULL},
      {"ad hard penalty", Trainer::kAd,
       [](MfcpConfig& m) {
         m.constraint_model = ConstraintModel::kHardPenalty;
       },
       0x70e97eba3a5a64cbULL},
      {"fg joint discrete", Trainer::kFg, [](MfcpConfig&) {},
       0x2b6b8ff39cd086f2ULL},
      {"fg per-cluster discrete", Trainer::kFg, per_cluster,
       0x1bbd5ac53ce9093aULL},
      {"fg joint surrogate", Trainer::kFg, surrogate,
       0xcc79b753c85adddfULL},
      {"fg per-cluster surrogate", Trainer::kFg,
       [&](MfcpConfig& m) {
         surrogate(m);
         per_cluster(m);
       },
       0xe83cec3c08b81f4eULL},
      {"fg linear cost", Trainer::kFg,
       [](MfcpConfig& m) { m.cost_model = CostModel::kLinearTotal; },
       0x12346beb69cede52ULL},
      {"fg decaying speedup", Trainer::kFg,
       [](MfcpConfig& m) {
         m.speedup = sim::SpeedupCurve::exponential_decay(0.6, 0.4);
       },
       0x10ae09bc721b0463ULL},
      // The pool changes no bit: same digest as the serial joint run.
      {"fg pooled", Trainer::kFgPooled, [](MfcpConfig&) {},
       0x2b6b8ff39cd086f2ULL},
  };
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  ThreadPool pool(3);
  for (const auto& c : cases) {
    Rng rng(11);
    PlatformPredictor pred(cfg.num_clusters, cfg.predictor, rng);
    MfcpConfig m = trainer_config(cfg);
    c.adjust(m);
    const MfcpTrainResult result =
        c.trainer == Trainer::kAd
            ? train_mfcp_ad(pred, ctx.train, m)
            : train_mfcp_fg(pred, ctx.train, m,
                            c.trainer == Trainer::kFgPooled ? &pool
                                                            : nullptr);
    const std::uint64_t got = training_digest(pred, result);
    EXPECT_EQ(got, c.digest) << c.name << ": 0x" << std::hex << got;
  }
}

TEST(EvaluationOptions, LinearCostDeploymentConcentrates) {
  // The ablation-(1) deployment (linear total-time cost) has no
  // load-balancing pressure: deployed utilization must not exceed the
  // standard deployment's on average.
  const auto cfg = tiny_config();
  const auto ctx = make_context(cfg);
  const auto predict = [&](const Matrix& features) {
    // Oracle-ish constant predictions suffice for this structural check.
    return std::make_pair(Matrix(cfg.num_clusters, features.rows(), 1.0),
                          Matrix(cfg.num_clusters, features.rows(), 0.9));
  };
  auto linear_cfg = cfg;
  linear_cfg.eval.linear_cost = true;
  const auto standard = evaluate_rule(predict, ctx, cfg);
  const auto linear = evaluate_rule(predict, ctx, linear_cfg);
  EXPECT_LE(linear.utilization().mean(),
            standard.utilization().mean() + 1e-9);
}

TEST(EvaluationOptions, EntropyFreeDeploymentWorks) {
  auto cfg = tiny_config();
  cfg.eval.entropy_tau = 0.0;
  const auto ctx = make_context(cfg);
  const auto result = run_method(Method::kTam, ctx, cfg);
  EXPECT_EQ(result.metrics.rounds(), cfg.test_rounds);
}

TEST(EvaluationOptions, LocalSearchPolishNeverHurtsPredictedMakespan) {
  auto cfg = tiny_config();
  auto polished_cfg = cfg;
  polished_cfg.eval.local_search = true;
  const auto ctx = make_context(cfg);
  const auto plain = run_method(Method::kTam, ctx, cfg);
  const auto polished = run_method(Method::kTam, ctx, polished_cfg);
  // Both must complete; regret ordering is environment-dependent, but the
  // run itself must be valid.
  EXPECT_EQ(plain.metrics.rounds(), polished.metrics.rounds());
}

}  // namespace
}  // namespace mfcp::core
