#include "mfcp/experiment.hpp"

#include "mfcp/trainer_mfcp.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mfcp::core {

std::string to_string(Method method) {
  switch (method) {
    case Method::kTam:
      return "TAM";
    case Method::kTsm:
      return "TSM";
    case Method::kUcb:
      return "UCB";
    case Method::kMfcpAd:
      return "MFCP-AD";
    case Method::kMfcpFg:
      return "MFCP-FG";
  }
  return "Unknown";
}

ExperimentContext make_context(const ExperimentConfig& config) {
  MFCP_CHECK(config.round_tasks > 0 && config.test_rounds > 0,
             "experiment needs rounds");
  sim::Platform platform =
      sim::Platform::make_setting(config.setting, config.num_clusters);
  sim::EmbedderConfig embed_cfg;
  embed_cfg.output_dim = config.predictor.feature_dim;
  embed_cfg.seed = 0xe1bedULL ^ config.seed;
  sim::PseudoGnnEmbedder embedder(embed_cfg);

  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = config.train_tasks + config.test_tasks;
  data_cfg.task_seed = 0x7a5cULL ^ (config.seed * 0x9e3779b97f4a7c15ULL);
  data_cfg.noise_seed = 0x401feULL ^ config.seed;
  const sim::Dataset all = build_dataset(platform, embedder, data_cfg);

  Rng split_rng(0x5917ULL ^ config.seed);
  const double train_fraction =
      static_cast<double>(config.train_tasks) /
      static_cast<double>(config.train_tasks + config.test_tasks);
  auto [train, test] = split_dataset(all, train_fraction, split_rng);
  return ExperimentContext{std::move(platform), std::move(embedder),
                           std::move(train), std::move(test)};
}

MetricsAccumulator evaluate_rule(const PredictionFn& predict,
                                 const ExperimentContext& ctx,
                                 const ExperimentConfig& config) {
  MFCP_CHECK(config.round_tasks <= ctx.test.num_tasks(),
             "round size exceeds test split");
  MetricsAccumulator metrics;
  Rng rng(0x9e3779b9ULL ^ (config.seed * 31));
  const std::size_t n = config.round_tasks;
  const std::size_t m = ctx.test.num_clusters();

  for (std::size_t round = 0; round < config.test_rounds; ++round) {
    // Same round sampling for every method: rng state is a function of the
    // round index only, so comparisons are paired.
    Rng round_rng(rng.next_u64());
    const auto order = round_rng.permutation(ctx.test.num_tasks());
    std::vector<std::size_t> idx(order.begin(), order.begin() + n);

    Matrix features(n, ctx.test.feature_dim());
    matching::MatchingProblem truth;
    truth.times = Matrix(m, n);
    truth.reliability = Matrix(m, n);
    truth.gamma = config.gamma;
    truth.speedup = config.speedup;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t c = 0; c < ctx.test.feature_dim(); ++c) {
        features(k, c) = ctx.test.features(idx[k], c);
      }
      for (std::size_t i = 0; i < m; ++i) {
        truth.times(i, k) = ctx.test.true_times(i, idx[k]);
        truth.reliability(i, k) = ctx.test.true_reliability(i, idx[k]);
      }
    }

    const auto [t_hat, a_hat] = predict(features);
    metrics.add(evaluate_predictions(truth, t_hat, a_hat, config.eval));
  }
  return metrics;
}

namespace {

/// Synchronizes the knobs the MFCP trainers share with the experiment.
MfcpConfig mfcp_config_for(const ExperimentConfig& config, GradMode grad) {
  MfcpConfig c =
      grad == GradMode::kAnalytic ? config.mfcp_ad : config.mfcp;
  c.round_tasks = config.round_tasks;
  c.gamma = config.gamma;
  c.speedup = config.speedup;
  c.seed ^= config.seed * 0x51ed2701ULL;
  return c;
}

TsmConfig tsm_config_for(const ExperimentConfig& config) {
  TsmConfig c = config.tsm;
  c.seed ^= config.seed * 0x9276aa55ULL;
  return c;
}

}  // namespace

MethodResult run_method(Method method, const ExperimentContext& ctx,
                        const ExperimentConfig& config, ThreadPool* pool) {
  MethodResult result;
  result.method = method;
  result.label = to_string(method);
  Stopwatch watch;
  Rng init_rng(0xbeefULL ^ (config.seed * 77));

  switch (method) {
    case Method::kTam: {
      const TamModel model = fit_tam(ctx.train);
      result.train_seconds = watch.seconds();
      result.metrics = evaluate_rule(
          [&model](const Matrix& features) {
            return std::make_pair(tam_time_matrix(model, features.rows()),
                                  tam_reliability_matrix(model,
                                                         features.rows()));
          },
          ctx, config);
      break;
    }
    case Method::kTsm: {
      PlatformPredictor predictor(ctx.train.num_clusters(), config.predictor,
                                  init_rng);
      train_tsm(predictor, ctx.train, tsm_config_for(config));
      result.train_seconds = watch.seconds();
      result.metrics = evaluate_rule(
          [&predictor](const Matrix& features) mutable {
            return std::make_pair(
                predictor.predict_time_matrix(features),
                predictor.predict_reliability_matrix(features));
          },
          ctx, config);
      break;
    }
    case Method::kUcb: {
      PlatformPredictor predictor(ctx.train.num_clusters(), config.predictor,
                                  init_rng);
      // Hold out the tail of the train split for residual calibration so
      // sigma is not an underestimate from in-sample residuals.
      Rng split_rng(0xca11bULL ^ config.seed);
      auto [fit_split, calib_split] =
          split_dataset(ctx.train, 0.8, split_rng);
      train_tsm(predictor, fit_split, tsm_config_for(config));
      const UcbModel model = fit_ucb(predictor, calib_split);
      result.train_seconds = watch.seconds();
      result.metrics = evaluate_rule(
          [&model, &predictor](const Matrix& features) mutable {
            return std::make_pair(
                ucb_time_matrix(model, predictor, features),
                ucb_reliability_matrix(model, predictor, features));
          },
          ctx, config);
      break;
    }
    case Method::kMfcpAd: {
      PlatformPredictor predictor(ctx.train.num_clusters(), config.predictor,
                                  init_rng);
      train_mfcp_ad(predictor, ctx.train,
                    mfcp_config_for(config, GradMode::kAnalytic));
      result.train_seconds = watch.seconds();
      result.metrics = evaluate_rule(
          [&predictor](const Matrix& features) mutable {
            return std::make_pair(
                predictor.predict_time_matrix(features),
                predictor.predict_reliability_matrix(features));
          },
          ctx, config);
      break;
    }
    case Method::kMfcpFg: {
      PlatformPredictor predictor(ctx.train.num_clusters(), config.predictor,
                                  init_rng);
      train_mfcp_fg(predictor, ctx.train,
                    mfcp_config_for(config, GradMode::kForward), pool);
      result.train_seconds = watch.seconds();
      result.metrics = evaluate_rule(
          [&predictor](const Matrix& features) mutable {
            return std::make_pair(
                predictor.predict_time_matrix(features),
                predictor.predict_reliability_matrix(features));
          },
          ctx, config);
      break;
    }
  }
  return result;
}

MethodResult run_mfcp_variant(CostModel cost, ConstraintModel constraint,
                              GradMode grad, std::string label,
                              const ExperimentContext& ctx,
                              const ExperimentConfig& config,
                              ThreadPool* pool) {
  MethodResult result;
  result.method = grad == GradMode::kAnalytic ? Method::kMfcpAd
                                              : Method::kMfcpFg;
  result.label = std::move(label);
  Stopwatch watch;
  Rng init_rng(0xbeefULL ^ (config.seed * 77));

  MfcpConfig mfcp = mfcp_config_for(config, grad);
  mfcp.cost_model = cost;
  mfcp.constraint_model = constraint;
  if (constraint == ConstraintModel::kHardPenalty) {
    // The constraint ablation replaces the barrier with the hinge inside
    // the training objective; disable the deployed-loss hinge so the
    // reliability signal flows only through the ablated component.
    mfcp.fg_reliability_penalty = 0.0;
  }
  // The ablated cost model applies to the deployed matching as well.
  ExperimentConfig eval_config = config;
  eval_config.eval.linear_cost = cost == CostModel::kLinearTotal;

  PlatformPredictor predictor(ctx.train.num_clusters(), config.predictor,
                              init_rng);
  if (grad == GradMode::kAnalytic) {
    train_mfcp_ad(predictor, ctx.train, mfcp);
  } else {
    train_mfcp_fg(predictor, ctx.train, mfcp, pool);
  }
  result.train_seconds = watch.seconds();
  result.metrics = evaluate_rule(
      [&predictor](const Matrix& features) mutable {
        return std::make_pair(
            predictor.predict_time_matrix(features),
            predictor.predict_reliability_matrix(features));
      },
      ctx, eval_config);
  return result;
}

}  // namespace mfcp::core
