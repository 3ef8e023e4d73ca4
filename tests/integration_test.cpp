// End-to-end integration tests: full training pipelines on a small
// adversarial environment, determinism, and the decision-focused-learning
// headline property (MFCP regret <= TSM regret where MSE-optimal
// predictions order clusters wrongly).
#include <gtest/gtest.h>

#include <cmath>

#include "mfcp/experiment.hpp"
#include "mfcp/trainer_mfcp.hpp"
#include "matching/objective.hpp"
#include "sim/failure.hpp"
#include "support/check.hpp"

namespace mfcp::core {
namespace {

/// Small, fast experiment configuration shared by the integration tests.
ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.num_clusters = 3;
  cfg.round_tasks = 5;
  cfg.train_tasks = 60;
  cfg.test_tasks = 30;
  cfg.test_rounds = 20;
  cfg.gamma = 0.75;
  cfg.tsm.epochs = 120;
  cfg.mfcp.epochs = 25;
  cfg.mfcp.pretrain_epochs = 120;
  cfg.mfcp.forward_gradient.samples = 6;
  cfg.mfcp.solver.max_iterations = 300;
  cfg.eval.solver.max_iterations = 600;
  return cfg;
}

TEST(Integration, MfcpAdTrainingLoopRunsAndRecordsLoss) {
  const auto cfg = fast_config();
  const auto ctx = make_context(cfg);
  Rng rng(1);
  PlatformPredictor predictor(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig mcfg = cfg.mfcp;
  mcfg.epochs = 10;
  mcfg.round_tasks = cfg.round_tasks;
  const auto result = train_mfcp_ad(predictor, ctx.train, mcfg);
  ASSERT_EQ(result.loss_history.size(), 10u);
  for (double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(Integration, MfcpFgTrainingLoopRunsAndRecordsLoss) {
  const auto cfg = fast_config();
  const auto ctx = make_context(cfg);
  Rng rng(2);
  PlatformPredictor predictor(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig mcfg = cfg.mfcp;
  mcfg.epochs = 8;
  mcfg.round_tasks = cfg.round_tasks;
  const auto result = train_mfcp_fg(predictor, ctx.train, mcfg);
  ASSERT_EQ(result.loss_history.size(), 8u);
  for (double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(Integration, MfcpFgSupportsNonConvexSpeedup) {
  auto cfg = fast_config();
  cfg.speedup = sim::SpeedupCurve::exponential_decay(0.6, 0.5);
  const auto ctx = make_context(cfg);
  Rng rng(3);
  PlatformPredictor predictor(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig mcfg = cfg.mfcp;
  mcfg.epochs = 6;
  mcfg.speedup = cfg.speedup;
  mcfg.round_tasks = cfg.round_tasks;
  EXPECT_NO_THROW(train_mfcp_fg(predictor, ctx.train, mcfg));
}

TEST(Integration, MfcpAdRejectsNonConvexSpeedup) {
  auto cfg = fast_config();
  cfg.speedup = sim::SpeedupCurve::exponential_decay(0.6, 0.5);
  const auto ctx = make_context(cfg);
  Rng rng(4);
  PlatformPredictor predictor(cfg.num_clusters, cfg.predictor, rng);
  MfcpConfig mcfg = cfg.mfcp;
  mcfg.speedup = cfg.speedup;
  mcfg.pretrain = false;
  EXPECT_THROW(train_mfcp_ad(predictor, ctx.train, mcfg), mfcp::ContractError);
}

TEST(Integration, ExperimentIsDeterministicUnderFixedSeed) {
  auto cfg = fast_config();
  cfg.test_rounds = 3;
  cfg.tsm.epochs = 60;
  const auto ctx1 = make_context(cfg);
  const auto ctx2 = make_context(cfg);
  const auto r1 = run_method(Method::kTsm, ctx1, cfg);
  const auto r2 = run_method(Method::kTsm, ctx2, cfg);
  EXPECT_DOUBLE_EQ(r1.metrics.regret().mean(), r2.metrics.regret().mean());
  EXPECT_DOUBLE_EQ(r1.metrics.utilization().mean(),
                   r2.metrics.utilization().mean());
}

TEST(Integration, TrainedTsmBeatsTamOnHeterogeneousTasks) {
  // TAM ignores task structure entirely; a trained per-task predictor must
  // produce lower matching regret on average (averaged over settings to
  // damp round noise at this small test scale).
  double tam_total = 0.0;
  double tsm_total = 0.0;
  for (auto setting : {sim::Setting::kA, sim::Setting::kB}) {
    auto cfg = fast_config();
    cfg.setting = setting;
    cfg.test_rounds = 30;
    cfg.tsm.epochs = 250;
    const auto ctx = make_context(cfg);
    tam_total += run_method(Method::kTam, ctx, cfg).metrics.regret().mean();
    tsm_total += run_method(Method::kTsm, ctx, cfg).metrics.regret().mean();
  }
  EXPECT_LT(tsm_total, tam_total + 0.1);
}

TEST(Integration, DeployedAssignmentExecutesOnPlatform) {
  // Close the loop with the failure-injection simulator: the deployed
  // matching actually runs, tasks succeed at roughly the predicted rate.
  const auto cfg = fast_config();
  const auto ctx = make_context(cfg);

  const std::size_t n = cfg.round_tasks;
  matching::MatchingProblem truth;
  truth.times = Matrix(cfg.num_clusters, n);
  truth.reliability = Matrix(cfg.num_clusters, n);
  truth.gamma = cfg.gamma;
  std::vector<sim::TaskDescriptor> tasks;
  for (std::size_t k = 0; k < n; ++k) {
    tasks.push_back(ctx.test.tasks[k]);
    for (std::size_t i = 0; i < cfg.num_clusters; ++i) {
      truth.times(i, k) = ctx.test.true_times(i, k);
      truth.reliability(i, k) = ctx.test.true_reliability(i, k);
    }
  }
  const auto assignment = deploy_matching(truth, cfg.eval);

  Rng rng(7);
  RunningStats success;
  for (int rep = 0; rep < 400; ++rep) {
    const auto outcome =
        sim::execute_assignment(ctx.platform, tasks, assignment, rng, 1);
    success.add(outcome.empirical_success_rate);
  }
  const double expected =
      matching::average_reliability(assignment, truth.reliability);
  EXPECT_NEAR(success.mean(), expected, 0.05);
}

TEST(Integration, MfcpFgImprovesOnTsmWarmStart) {
  // The Fig. 2 story distilled: capacity-limited predictors make
  // systematic errors; fine-tuning through the deployed matching pipeline
  // (MFCP-FG, discrete loss) must not lose regret relative to its own TSM
  // warm start, and should improve reliability via the constraint hinge.
  auto cfg = fast_config();
  cfg.train_tasks = 60;
  cfg.test_tasks = 60;
  cfg.test_rounds = 40;
  cfg.predictor.hidden = {2};  // underfitting: systematic errors to fix
  cfg.tsm.epochs = 300;
  cfg.mfcp.epochs = 40;
  cfg.mfcp.learning_rate = 3e-3;
  cfg.mfcp.pretrain_epochs = 300;
  cfg.mfcp.forward_gradient.samples = 8;
  const auto ctx = make_context(cfg);

  const auto tsm = run_method(Method::kTsm, ctx, cfg);
  const auto fg = run_method(Method::kMfcpFg, ctx, cfg);
  // Paired rounds: identical test batches for both methods. Tolerance
  // covers round noise at this reduced test scale.
  EXPECT_LE(fg.metrics.regret().mean(),
            tsm.metrics.regret().mean() + 0.1);
  EXPECT_GE(fg.metrics.reliability().mean(),
            tsm.metrics.reliability().mean() - 0.02);
}

TEST(Integration, AblationVariantsRunEndToEnd) {
  auto cfg = fast_config();
  cfg.test_rounds = 2;
  cfg.mfcp.epochs = 5;
  cfg.mfcp.pretrain_epochs = 60;
  const auto ctx = make_context(cfg);
  const auto linear = run_mfcp_variant(CostModel::kLinearTotal,
                                       ConstraintModel::kLogBarrier,
                                       GradMode::kForward, "ablation-linear",
                                       ctx, cfg);
  EXPECT_EQ(linear.metrics.rounds(), 2u);
  const auto penalty = run_mfcp_variant(
      CostModel::kSmoothedMax, ConstraintModel::kHardPenalty,
      GradMode::kAnalytic, "ablation-penalty", ctx, cfg);
  EXPECT_EQ(penalty.metrics.rounds(), 2u);
  EXPECT_EQ(penalty.label, "ablation-penalty");
}

TEST(Integration, ThreadPoolAcceleratedFgMatchesSerial) {
  const auto cfg = fast_config();
  const auto ctx = make_context(cfg);
  MfcpConfig mcfg = cfg.mfcp;
  mcfg.epochs = 4;
  mcfg.round_tasks = cfg.round_tasks;

  Rng rng_a(9);
  PlatformPredictor serial(cfg.num_clusters, cfg.predictor, rng_a);
  const auto r_serial = train_mfcp_fg(serial, ctx.train, mcfg, nullptr);

  Rng rng_b(9);
  PlatformPredictor pooled(cfg.num_clusters, cfg.predictor, rng_b);
  ThreadPool pool(4);
  const auto r_pooled = train_mfcp_fg(pooled, ctx.train, mcfg, &pool);

  ASSERT_EQ(r_serial.loss_history.size(), r_pooled.loss_history.size());
  for (std::size_t e = 0; e < r_serial.loss_history.size(); ++e) {
    EXPECT_DOUBLE_EQ(r_serial.loss_history[e], r_pooled.loss_history[e]);
  }
  // Final predictions bitwise identical: per-sample RNG streams make the
  // estimator reproducible regardless of thread count.
  Matrix features(3, cfg.predictor.feature_dim, 0.4);
  EXPECT_TRUE(approx_equal(serial.predict_time_matrix(features),
                           pooled.predict_time_matrix(features), 0.0));
}

}  // namespace
}  // namespace mfcp::core
