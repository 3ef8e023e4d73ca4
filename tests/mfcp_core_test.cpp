// Tests for the core MFCP module: predictors, regret evaluation, metrics,
// TAM/UCB baselines, and the TSM trainer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "matching/entropy.hpp"
#include "matching/penalty.hpp"
#include "matching/rounding.hpp"
#include "mfcp/baseline_tam.hpp"
#include "mfcp/baseline_ucb.hpp"
#include "mfcp/experiment.hpp"
#include "mfcp/metrics.hpp"
#include "mfcp/predictor.hpp"
#include "mfcp/regret.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "autograd/mlp_tape.hpp"
#include "nn/optimizer.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mfcp::core {
namespace {

sim::Dataset tiny_dataset(std::size_t tasks = 40, std::size_t clusters = 3) {
  const auto platform =
      sim::Platform::make_setting(sim::Setting::kA, clusters);
  sim::PseudoGnnEmbedder embedder;
  sim::DatasetConfig cfg;
  cfg.num_tasks = tasks;
  return build_dataset(platform, embedder, cfg);
}

// ------------------------------------------------------------- predictor --

TEST(Predictor, TimeHeadIsPositive) {
  Rng rng(1);
  PredictorConfig cfg;
  ClusterPredictor pred(cfg, rng);
  Matrix features(6, cfg.feature_dim, 0.3);
  Matrix row(1, 6);
  pred.predict_time_row(features, row.flat());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_GT(row[j], 0.0);
  }
}

TEST(Predictor, ReliabilityHeadInUnitInterval) {
  Rng rng(2);
  PredictorConfig cfg;
  ClusterPredictor pred(cfg, rng);
  Matrix features(6, cfg.feature_dim, -0.7);
  Matrix row(1, 6);
  pred.predict_reliability_row(features, row.flat());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_GT(row[j], 0.0);
    EXPECT_LT(row[j], 1.0);
  }
}

TEST(Predictor, PlatformPredictorBuildsMatrices) {
  Rng rng(3);
  PredictorConfig cfg;
  PlatformPredictor pred(4, cfg, rng);
  EXPECT_EQ(pred.num_clusters(), 4u);
  Matrix features(5, cfg.feature_dim, 0.1);
  const Matrix t = pred.predict_time_matrix(features);
  const Matrix a = pred.predict_reliability_matrix(features);
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 5u);
}

TEST(Predictor, ClustersAreIndependentlyInitialized) {
  Rng rng(4);
  PredictorConfig cfg;
  PlatformPredictor pred(2, cfg, rng);
  Matrix features(3, cfg.feature_dim, 0.5);
  const Matrix t = pred.predict_time_matrix(features);
  EXPECT_NE(t(0, 0), t(1, 0));
}

TEST(Predictor, MatrixRowMatchesClusterRow) {
  Rng rng(5);
  PredictorConfig cfg;
  PlatformPredictor pred(3, cfg, rng);
  Matrix features(4, cfg.feature_dim, 0.2);
  const Matrix t = pred.predict_time_matrix(features);
  Matrix row1(1, 4);
  pred.cluster(1).predict_time_row(features, row1.flat());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(t(1, j), row1[j]);
  }
}

// ---------------------------------------------------------------- regret --

TEST(Regret, PerfectPredictionsGiveNearZeroRegret) {
  const auto data = tiny_dataset(12);
  matching::MatchingProblem truth;
  const auto sub = data.subset({0, 1, 2, 3, 4});
  truth.times = sub.true_times;
  truth.reliability = sub.true_reliability;
  truth.gamma = 0.6;
  EvaluationConfig cfg;
  const auto outcome =
      evaluate_predictions(truth, truth.times, truth.reliability, cfg);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_NEAR(outcome.regret, 0.0, 0.02);
}

TEST(Regret, RegretIsGapDividedByTaskCount) {
  const auto data = tiny_dataset(10);
  matching::MatchingProblem truth;
  const auto sub = data.subset({1, 3, 5, 7});
  truth.times = sub.true_times;
  truth.reliability = sub.true_reliability;
  truth.gamma = 0.5;
  const matching::Assignment fixed = {0, 0, 0, 0};
  const auto outcome = evaluate_assignment(truth, fixed);
  EXPECT_NEAR(outcome.regret,
              (outcome.makespan - outcome.optimal_makespan) / 4.0, 1e-12);
  EXPECT_GE(outcome.makespan, outcome.optimal_makespan - 1e-12);
}

TEST(Regret, DeployRespectsPredictedReliability) {
  // Predictions say cluster 0 is unreliable -> deploy avoids it even if
  // cluster 0 is fast.
  matching::MatchingProblem predicted;
  predicted.times = Matrix{{0.1, 0.1, 0.1}, {1.0, 1.0, 1.0}};
  predicted.reliability = Matrix{{0.3, 0.3, 0.3}, {0.95, 0.95, 0.95}};
  predicted.gamma = 0.8;
  EvaluationConfig cfg;
  const auto assignment = deploy_matching(predicted, cfg);
  for (int c : assignment) {
    EXPECT_EQ(c, 1);
  }
}

matching::MatchingProblem deploy_problem(std::uint64_t seed) {
  Rng rng(seed);
  matching::MatchingProblem p;
  p.times = Matrix(4, 10);
  p.reliability = Matrix(4, 10);
  for (std::size_t k = 0; k < p.times.size(); ++k) {
    p.times[k] = rng.uniform(0.2, 6.0);
    p.reliability[k] = rng.uniform(0.6, 0.99);
  }
  p.gamma = 0.75;
  return p;
}

TEST(Regret, DefaultDeploySolvesThePriceDual) {
  const auto p = deploy_problem(3);
  const EvaluationConfig cfg;
  const DeployTrace trace = deploy_matching_traced(p, cfg);
  EXPECT_EQ(trace.relaxed.stop, matching::StopReason::kConverged);
  EXPECT_TRUE(trace.relaxed.converged);
  EXPECT_LT(trace.relaxed.residual, cfg.solver.tolerance);
  EXPECT_EQ(trace.assignment, matching::round_argmax(trace.relaxed.x));
}

TEST(Regret, AblatedAndSpeedupDeploysStayOnMirrorDescent) {
  // Bit-identical to a direct mirror solve of the same objective, which is
  // what deploy_matching_traced ran for every objective before the dual.
  const auto mirror_of = [](std::unique_ptr<matching::ContinuousObjective> base,
                            const EvaluationConfig& cfg) {
    const matching::EntropicObjective f(std::move(base),
                                        matching::kEntropyTau);
    return matching::solve_mirror(f, cfg.solver);
  };
  const auto p = deploy_problem(4);

  EvaluationConfig linear;
  linear.linear_cost = true;
  const auto linear_trace = deploy_matching_traced(p, linear);
  const auto linear_mirror = mirror_of(
      std::make_unique<matching::LinearCostBarrierObjective>(
          p, linear.barrier.lambda),
      linear);
  EXPECT_TRUE(approx_equal(linear_trace.relaxed.x, linear_mirror.x, 0.0));
  EXPECT_EQ(linear_trace.relaxed.iterations, linear_mirror.iterations);

  matching::MatchingProblem shared = p;
  shared.speedup = sim::SpeedupCurve::exponential_decay(0.6, 0.5);
  const EvaluationConfig cfg;
  const auto shared_trace = deploy_matching_traced(shared, cfg);
  const auto shared_mirror = mirror_of(
      std::make_unique<matching::BarrierObjective>(shared, cfg.barrier), cfg);
  EXPECT_TRUE(approx_equal(shared_trace.relaxed.x, shared_mirror.x, 0.0));
  EXPECT_EQ(shared_trace.relaxed.iterations, shared_mirror.iterations);
}

TEST(Regret, AttributionStaysExactOnDualSolves) {
  const EvaluationConfig cfg;
  for (std::uint64_t seed = 5; seed < 10; ++seed) {
    const auto truth = deploy_problem(seed);
    Rng noise(seed + 100);
    Matrix t_hat = truth.times;
    for (std::size_t k = 0; k < t_hat.size(); ++k) {
      t_hat[k] *= noise.uniform(0.6, 1.6);
    }
    const auto predicted = truth.with_metrics(t_hat, truth.reliability);
    const DeployTrace deployed = deploy_matching_traced(predicted, cfg);
    const DeployTrace reference = deploy_matching_traced(truth, cfg);
    const auto breakdown = attribute_regret(truth, deployed, reference, cfg);
    EXPECT_TRUE(breakdown.exact()) << "seed " << seed;
    // Both chains converged, so the polish is skipped and the solver term
    // is exactly zero.
    EXPECT_EQ(breakdown.solver_gap, 0.0) << "seed " << seed;
  }
}

TEST(Regret, SurrogateRegretZeroAtTrueOptimum) {
  const auto data = tiny_dataset(8);
  const auto sub = data.subset({0, 1, 2});
  matching::BarrierObjective obj(sub.true_times, sub.true_reliability, 0.5,
                                 {});
  const auto x = matching::solve_mirror(obj).x;
  EXPECT_NEAR(surrogate_regret(obj, x, x), 0.0, 1e-12);
  const Matrix g = surrogate_upstream_gradient(obj, x);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.cols(), 3u);
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, AccumulatesMeanAndStd) {
  MetricsAccumulator acc;
  MatchOutcome o;
  o.regret = 1.0;
  o.reliability = 0.9;
  o.utilization = 0.5;
  o.feasible = true;
  acc.add(o);
  o.regret = 3.0;
  o.feasible = false;
  acc.add(o);
  EXPECT_EQ(acc.rounds(), 2u);
  EXPECT_DOUBLE_EQ(acc.regret().mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.feasible_fraction(), 0.5);
  EXPECT_NE(acc.summary().find("regret"), std::string::npos);
}

// ------------------------------------------------------------------- TAM --

TEST(Tam, MeansMatchHandComputation) {
  const auto data = tiny_dataset(20);
  const auto model = fit_tam(data);
  ASSERT_EQ(model.mean_time.size(), 3u);
  double expect = 0.0;
  for (std::size_t j = 0; j < 20; ++j) {
    expect += data.times(1, j);
  }
  expect /= 20.0;
  EXPECT_NEAR(model.mean_time[1], expect, 1e-12);
}

TEST(Tam, MatricesAreRowConstant) {
  const auto data = tiny_dataset(15);
  const auto model = fit_tam(data);
  const Matrix t = tam_time_matrix(model, 7);
  const Matrix a = tam_reliability_matrix(model, 7);
  EXPECT_EQ(t.cols(), 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 1; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(t(i, j), t(i, 0));
      EXPECT_DOUBLE_EQ(a(i, j), a(i, 0));
    }
  }
}

// ------------------------------------------------------------------- TSM --

TEST(Tsm, ReducesTrainingLoss) {
  const auto data = tiny_dataset(60);
  Rng rng(6);
  PredictorConfig pcfg;
  PlatformPredictor pred(3, pcfg, rng);
  TsmConfig cfg;
  cfg.epochs = 150;
  const auto result = train_tsm(pred, data, cfg);
  ASSERT_EQ(result.time_loss_history.size(), 150u);
  EXPECT_LT(result.time_loss_history.back(),
            0.5 * result.time_loss_history.front());
  EXPECT_LT(result.rel_loss_history.back(),
            result.rel_loss_history.front());
}

// Mean squared error of a prediction matrix.
double mse_value(const Matrix& pred, const Matrix& target) {
  MFCP_CHECK(pred.same_shape(target), "mse_value: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    acc += d * d;
  }
  return acc / static_cast<double>(pred.size());
}

TEST(Tsm, LearnsBetterThanUntrainedBaseline) {
  const auto data = tiny_dataset(80);
  Rng rng(7);
  PredictorConfig pcfg;
  PlatformPredictor trained(3, pcfg, rng);
  Rng rng2(7);
  PlatformPredictor untrained(3, pcfg, rng2);
  TsmConfig cfg;
  cfg.epochs = 250;
  train_tsm(trained, data, cfg);
  const Matrix t_trained = trained.predict_time_matrix(data.features);
  const Matrix t_raw = untrained.predict_time_matrix(data.features);
  EXPECT_LT(mse_value(t_trained, data.times), mse_value(t_raw, data.times));
}

// The TSM loop as it ran on the autograd tape: the oracle the tape-free
// train_tsm must reproduce bit for bit.
TsmTrainResult train_tsm_on_tape(PlatformPredictor& predictor,
                                 const sim::Dataset& train,
                                 const TsmConfig& config) {
  TsmTrainResult result;
  Rng rng(config.seed);
  const std::size_t n = train.num_tasks();
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
  const bool full_batch = n <= config.batch_size;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<std::size_t> batch_idx;
    if (full_batch) {
      batch_idx.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        batch_idx[j] = j;
      }
    } else {
      const auto order = rng.permutation(n);
      batch_idx.assign(order.begin(), order.begin() + config.batch_size);
    }
    const std::size_t b = batch_idx.size();
    Matrix features(b, train.feature_dim());
    for (std::size_t k = 0; k < b; ++k) {
      for (std::size_t c = 0; c < train.feature_dim(); ++c) {
        features(k, c) = train.features(batch_idx[k], c);
      }
    }
    double epoch_time_loss = 0.0;
    double epoch_rel_loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      Matrix t_target(b, 1);
      Matrix a_target(b, 1);
      for (std::size_t k = 0; k < b; ++k) {
        t_target(k, 0) = train.times(i, batch_idx[k]);
        a_target(k, 0) = train.reliability(i, batch_idx[k]);
      }
      auto& cluster = predictor.cluster(i);
      epoch_time_loss +=
          autograd::tape_mse_step(cluster.time_model(), time_opts[i],
                                  features, t_target, cluster.time_scale());
      epoch_rel_loss += autograd::tape_mse_step(
          cluster.reliability_model(), rel_opts[i], features, a_target, 1.0);
    }
    result.time_loss_history.push_back(epoch_time_loss /
                                       static_cast<double>(m));
    result.rel_loss_history.push_back(epoch_rel_loss /
                                      static_cast<double>(m));
  }
  return result;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_weights(PlatformPredictor& a, PlatformPredictor& b) {
  bool same = a.num_clusters() == b.num_clusters();
  for (std::size_t i = 0; same && i < a.num_clusters(); ++i) {
    auto a_params = a.cluster(i).time_model().parameters();
    auto b_params = b.cluster(i).time_model().parameters();
    for (auto& p : a.cluster(i).reliability_model().parameters()) {
      a_params.push_back(p);
    }
    for (auto& p : b.cluster(i).reliability_model().parameters()) {
      b_params.push_back(p);
    }
    same = a_params.size() == b_params.size();
    for (std::size_t p = 0; same && p < a_params.size(); ++p) {
      same = same_bits(*a_params[p].value, *b_params[p].value);
    }
  }
  return same;
}

TEST(Tsm, MatchesTapeOracleBitForBit) {
  // 2 to 10 (cluster, head) jobs: fewer and more than the global pool
  // has workers.
  for (const std::size_t clusters : {1u, 3u, 4u, 5u}) {
    const auto data = tiny_dataset(40, clusters);
    // Full batch (40 <= 64), then minibatches of 16 drawn per epoch.
    for (const std::size_t batch_size : {64u, 16u}) {
      SCOPED_TRACE("clusters " + std::to_string(clusters) + ", batch_size " +
                   std::to_string(batch_size));
      TsmConfig cfg;
      cfg.epochs = 40;
      cfg.batch_size = batch_size;
      Rng init_a(9);
      Rng init_b(9);
      PlatformPredictor fused(clusters, PredictorConfig{}, init_a);
      PlatformPredictor tape(clusters, PredictorConfig{}, init_b);
      const auto got = train_tsm(fused, data, cfg);
      const auto want = train_tsm_on_tape(tape, data, cfg);
      EXPECT_TRUE(same_bits(got.time_loss_history, want.time_loss_history));
      EXPECT_TRUE(same_bits(got.rel_loss_history, want.rel_loss_history));
      EXPECT_TRUE(same_weights(fused, tape));
    }
  }
}

TEST(Tsm, ConcurrentCallsMatchSequential) {
  // Two callers share the global pool at once; each gets the bits it
  // gets alone.
  const auto data_a = tiny_dataset(40, 3);
  const auto data_b = tiny_dataset(80, 4);
  TsmConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 16;
  Rng init_seq_a(21);
  Rng init_seq_b(22);
  Rng init_par_a(21);
  Rng init_par_b(22);
  PlatformPredictor seq_a(3, PredictorConfig{}, init_seq_a);
  PlatformPredictor seq_b(4, PredictorConfig{}, init_seq_b);
  PlatformPredictor par_a(3, PredictorConfig{}, init_par_a);
  PlatformPredictor par_b(4, PredictorConfig{}, init_par_b);
  const auto want_a = train_tsm(seq_a, data_a, cfg);
  const auto want_b = train_tsm(seq_b, data_b, cfg);
  TsmTrainResult got_a;
  TsmTrainResult got_b;
  std::thread ta([&] { got_a = train_tsm(par_a, data_a, cfg); });
  std::thread tb([&] { got_b = train_tsm(par_b, data_b, cfg); });
  ta.join();
  tb.join();
  EXPECT_TRUE(same_bits(got_a.time_loss_history, want_a.time_loss_history));
  EXPECT_TRUE(same_bits(got_a.rel_loss_history, want_a.rel_loss_history));
  EXPECT_TRUE(same_bits(got_b.time_loss_history, want_b.time_loss_history));
  EXPECT_TRUE(same_bits(got_b.rel_loss_history, want_b.rel_loss_history));
  EXPECT_TRUE(same_weights(par_a, seq_a));
  EXPECT_TRUE(same_weights(par_b, seq_b));
}

// 64-bit FNV-1a over every head's weight bytes, cluster by cluster, the
// time head before the reliability head, parameters in Mlp order.
std::uint64_t weight_digest(PlatformPredictor& predictor) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto absorb = [&h](nn::Mlp& mlp) {
    for (const auto& p : mlp.parameters()) {
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(p.value->data());
      for (std::size_t i = 0; i < p.value->size() * sizeof(double); ++i) {
        h = (h ^ bytes[i]) * 0x100000001b3ULL;
      }
    }
  };
  for (std::size_t i = 0; i < predictor.num_clusters(); ++i) {
    absorb(predictor.cluster(i).time_model());
    absorb(predictor.cluster(i).reliability_model());
  }
  return h;
}

TEST(Tsm, SetUpPretrainingMatchesCommittedDigest) {
  // The platform's set-up pretraining as online_platform and perfbench
  // run it: setting A, 100 profiled tasks, 250 epochs, Rng(0x0417e5)
  // init. The digests were taken from the tape-equivalent kernels before
  // their element loops became branch-free; they hold the weights to
  // those bits across commits. They also depend on libm's exp and log1p
  // (softplus, sigmoid), so a host with another libm may disagree.
  // Never update a digest to make this pass on unchanged kernels.
  constexpr std::pair<std::size_t, std::uint64_t> kDigests[] = {
      {3, 0x3a7848dae488c13cULL}, {4, 0x09edbed04e0a40bdULL}};
  for (const auto& [clusters, digest] : kDigests) {
    const auto platform =
        sim::Platform::make_setting(sim::Setting::kA, clusters);
    sim::PseudoGnnEmbedder embedder;
    sim::DatasetConfig data_cfg;
    data_cfg.num_tasks = 100;
    const sim::Dataset profile = build_dataset(platform, embedder, data_cfg);
    Rng init(0x0417e5ULL);
    PlatformPredictor predictor(clusters, PredictorConfig{}, init);
    TsmConfig tsm;
    tsm.epochs = 250;
    train_tsm(predictor, profile, tsm);
    const std::uint64_t got = weight_digest(predictor);
    EXPECT_EQ(got, digest) << "clusters " << clusters << ": 0x" << std::hex
                           << got;
  }
}

TEST(Tsm, RejectsMismatchedClusterCount) {
  const auto data = tiny_dataset(10, 3);
  Rng rng(8);
  PlatformPredictor pred(2, PredictorConfig{}, rng);
  EXPECT_THROW(train_tsm(pred, data, TsmConfig{}), ContractError);
}

// ------------------------------------------------------------------- UCB --

TEST(Ucb, SigmaReflectsResidualScale) {
  const auto data = tiny_dataset(60);
  Rng rng(9);
  PlatformPredictor pred(3, PredictorConfig{}, rng);
  TsmConfig cfg;
  cfg.epochs = 200;
  train_tsm(pred, data, cfg);
  const auto model = fit_ucb(pred, data, 1.0);
  for (double s : model.sigma_time) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 5.0);
  }
}

TEST(Ucb, AdjustedMatricesAreConservative) {
  const auto data = tiny_dataset(40);
  Rng rng(10);
  PlatformPredictor pred(3, PredictorConfig{}, rng);
  TsmConfig cfg;
  cfg.epochs = 100;
  train_tsm(pred, data, cfg);
  const auto model = fit_ucb(pred, data, 2.0);
  const Matrix t_plain = pred.predict_time_matrix(data.features);
  const Matrix t_ucb = ucb_time_matrix(model, pred, data.features);
  const Matrix a_plain = pred.predict_reliability_matrix(data.features);
  const Matrix a_ucb = ucb_reliability_matrix(model, pred, data.features);
  for (std::size_t k = 0; k < t_plain.size(); ++k) {
    EXPECT_GE(t_ucb[k], t_plain[k]);       // pessimistic times
    EXPECT_LE(a_ucb[k], a_plain[k] + 1e-12);  // pessimistic reliability
    EXPECT_GE(a_ucb[k], 0.01);
    EXPECT_LE(a_ucb[k], 0.999);
  }
}

TEST(Ucb, KappaZeroReducesToTsm) {
  const auto data = tiny_dataset(30);
  Rng rng(11);
  PlatformPredictor pred(3, PredictorConfig{}, rng);
  const auto model = fit_ucb(pred, data, 0.0);
  const Matrix t_plain = pred.predict_time_matrix(data.features);
  const Matrix t_ucb = ucb_time_matrix(model, pred, data.features);
  EXPECT_TRUE(approx_equal(t_plain, t_ucb, 1e-12));
}

// ------------------------------------------------------------ experiment --

TEST(Experiment, ContextShapesAndSplit) {
  ExperimentConfig cfg;
  cfg.train_tasks = 30;
  cfg.test_tasks = 10;
  const auto ctx = make_context(cfg);
  EXPECT_EQ(ctx.train.num_tasks(), 30u);
  EXPECT_EQ(ctx.test.num_tasks(), 10u);
  EXPECT_EQ(ctx.platform.num_clusters(), cfg.num_clusters);
}

TEST(Experiment, EvaluateRuleRunsRequestedRounds) {
  ExperimentConfig cfg;
  cfg.train_tasks = 20;
  cfg.test_tasks = 12;
  cfg.test_rounds = 4;
  const auto ctx = make_context(cfg);
  std::size_t calls = 0;
  const auto metrics = evaluate_rule(
      [&](const Matrix& features) {
        ++calls;
        // Oracle predictions: find each feature row in the test set.
        Matrix t(cfg.num_clusters, features.rows(), 1.0);
        Matrix a(cfg.num_clusters, features.rows(), 0.9);
        return std::make_pair(t, a);
      },
      ctx, cfg);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(metrics.rounds(), 4u);
}

TEST(Experiment, MethodNames) {
  EXPECT_EQ(to_string(Method::kTam), "TAM");
  EXPECT_EQ(to_string(Method::kMfcpFg), "MFCP-FG");
}

TEST(Experiment, TamMethodRunsEndToEnd) {
  ExperimentConfig cfg;
  cfg.train_tasks = 25;
  cfg.test_tasks = 10;
  cfg.test_rounds = 3;
  const auto ctx = make_context(cfg);
  const auto result = run_method(Method::kTam, ctx, cfg);
  EXPECT_EQ(result.metrics.rounds(), 3u);
  EXPECT_GE(result.metrics.regret().mean(), -1.0);
}

}  // namespace
}  // namespace mfcp::core
