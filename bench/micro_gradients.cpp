// Microbenchmarks for the two matching-layer differentiation routes:
// analytic KKT (vector-Jacobian product vs full Jacobian) and zeroth-order
// forward gradients (serial vs thread pool, varying sample count S) —
// the O(S * K2 * MN) term of the complexity analysis (Eq. 21) — and for
// the predictor MLP: one MSE + Adam step on the autograd tape
// (autograd::tape_mse_step, the engine's retrain burst) against the
// fused kernels (nn/fused_mlp), the kernels' matrix product at each
// vector tier, the Adam step alone, the engine's 4-cluster predict at 2
// and 10 rows, a predictor copied through text checkpoints, and a whole
// TSM pretraining run, its (cluster, head) fits spread over the global
// pool.
#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>
#include <vector>

#include "autograd/mlp_tape.hpp"
#include "diff/kkt.hpp"
#include "diff/zeroth_order.hpp"
#include "linalg/vector_ops.hpp"
#include "matching/barrier.hpp"
#include "matching/solver_mirror.hpp"
#include "mfcp/predictor.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "nn/fused_mlp.hpp"
#include "nn/serialize.hpp"
#include "sim/dataset.hpp"
#include "support/rng.hpp"

namespace {

using namespace mfcp;
using namespace mfcp::matching;

struct Instance {
  MatchingProblem problem;
  BarrierObjective objective;
  Matrix xstar;
  Matrix upstream;
};

Instance make_instance(std::size_t m, std::size_t n) {
  Rng rng(11);
  MatchingProblem p;
  p.times = Matrix(m, n);
  p.reliability = Matrix(m, n);
  for (std::size_t i = 0; i < p.times.size(); ++i) {
    p.times[i] = rng.uniform(0.4, 2.0);
    p.reliability[i] = rng.uniform(0.6, 0.98);
  }
  p.gamma = 0.6;
  BarrierConfig bcfg;
  bcfg.beta = 4.0;
  BarrierObjective obj(p, bcfg);
  MirrorSolverConfig scfg;
  scfg.max_iterations = 1500;
  Matrix xstar = solve_mirror(obj, scfg).x;
  Matrix upstream(m, n);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = rng.normal();
  }
  return Instance{std::move(p), std::move(obj), std::move(xstar),
                  std::move(upstream)};
}

void BM_KktVjp(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diff::kkt_vjp(inst.objective, inst.xstar, inst.upstream));
  }
}
BENCHMARK(BM_KktVjp)->Args({3, 5})->Args({3, 25})->Args({6, 40});

void BM_KktFullJacobian(benchmark::State& state) {
  // The multi-RHS route costs ~MN solves instead of one: quantifies why
  // the trainers use the adjoint VJP.
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diff::kkt_full_jacobians(inst.objective, inst.xstar));
  }
}
BENCHMARK(BM_KktFullJacobian)->Args({3, 5})->Args({3, 15});

void BM_ZerothOrderRow(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto inst = make_instance(3, 5);
  const auto& p = inst.problem;
  const auto solver = [&p](const Matrix& t, const Matrix& a) {
    BarrierConfig bcfg;
    bcfg.beta = 4.0;
    BarrierObjective obj(t, a, p.gamma, bcfg);
    MirrorSolverConfig scfg;
    scfg.max_iterations = 300;
    return solve_mirror(obj, scfg).x;
  };
  diff::ForwardGradientConfig fg;
  fg.samples = samples;
  fg.delta = 0.05;
  const auto loss = diff::matching_surrogate(solver, inst.upstream);
  const double base = dot(inst.upstream, inst.xstar);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::estimate_gradients(
        loss, p.times, p.reliability, base, 0, 1, fg, rng));
  }
  state.SetLabel("S=" + std::to_string(samples));
}
BENCHMARK(BM_ZerothOrderRow)->Arg(4)->Arg(16)->Arg(64);

void BM_ZerothOrderRowPooled(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto inst = make_instance(3, 5);
  const auto& p = inst.problem;
  const auto solver = [&p](const Matrix& t, const Matrix& a) {
    BarrierConfig bcfg;
    bcfg.beta = 4.0;
    BarrierObjective obj(t, a, p.gamma, bcfg);
    MirrorSolverConfig scfg;
    scfg.max_iterations = 300;
    return solve_mirror(obj, scfg).x;
  };
  diff::ForwardGradientConfig fg;
  fg.samples = samples;
  fg.delta = 0.05;
  const auto loss = diff::matching_surrogate(solver, inst.upstream);
  const double base = dot(inst.upstream, inst.xstar);
  Rng rng(13);
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::estimate_gradients(
        loss, p.times, p.reliability, base, 0, 1, fg, rng, &pool));
  }
}
BENCHMARK(BM_ZerothOrderRowPooled)->Arg(16)->Arg(64);

// One cluster's head (d = 12 -> 32 -> 32 -> 1) and a random batch with
// its targets, as train_tsm steps it: the time head (softplus x 4) or the
// reliability head (sigmoid, targets in (0, 1)).
enum class Head { kTime, kReliability };

struct MlpStepInstance {
  core::ClusterPredictor cluster;
  Head head;
  nn::Adam opt;
  Matrix x;
  Matrix target;

  nn::Mlp& model() {
    return head == Head::kTime ? cluster.time_model()
                               : cluster.reliability_model();
  }
  double scale() const {
    return head == Head::kTime ? cluster.time_scale() : 1.0;
  }
};

MlpStepInstance make_step_instance(std::size_t batch,
                                   Head head = Head::kTime) {
  Rng rng(17);
  core::ClusterPredictor cluster(core::PredictorConfig{}, rng);
  nn::Adam opt(head == Head::kTime ? cluster.time_model().parameters()
                                   : cluster.reliability_model().parameters(),
               1e-2);
  Matrix x(batch, core::PredictorConfig{}.feature_dim);
  Matrix target(batch, 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
  }
  for (std::size_t i = 0; i < target.size(); ++i) {
    target[i] = head == Head::kTime ? rng.uniform(0.5, 8.0)
                                    : rng.uniform(0.0, 1.0);
  }
  return MlpStepInstance{std::move(cluster), head, std::move(opt),
                         std::move(x), std::move(target)};
}

// Every step benchmark starts a fresh instance every 250 steps, the
// length of one set-up fit, with the timer paused. Stepping one fixed
// batch for much longer slowed the step from about 51 to 110-126 us by
// 33k-40k steps, and not with FTZ/DAZ set: the dead units' Adam moments
// decay through the subnormal range, a cost train_tsm never pays.
constexpr int kStepsPerInstance = 250;

void renew_every_fit(benchmark::State& state, int& steps,
                     std::optional<MlpStepInstance>& inst,
                     Head head = Head::kTime) {
  if (++steps < kStepsPerInstance) {
    return;
  }
  state.PauseTiming();
  inst.emplace(
      make_step_instance(static_cast<std::size_t>(state.range(0)), head));
  steps = 0;
  state.ResumeTiming();
}

void BM_MlpStepTape(benchmark::State& state) {
  std::optional<MlpStepInstance> inst;
  int steps = kStepsPerInstance - 1;
  for (auto _ : state) {
    renew_every_fit(state, steps, inst);
    benchmark::DoNotOptimize(autograd::tape_mse_step(
        inst->model(), inst->opt, inst->x, inst->target, inst->scale()));
  }
}
BENCHMARK(BM_MlpStepTape)->Arg(32)->Arg(64);

void step_fused(benchmark::State& state, Head head) {
  std::optional<MlpStepInstance> inst;
  int steps = kStepsPerInstance - 1;
  for (auto _ : state) {
    renew_every_fit(state, steps, inst, head);
    benchmark::DoNotOptimize(nn::fused_mse_step(
        inst->model(), inst->opt, inst->x, inst->target, inst->scale()));
  }
}

void BM_MlpStepFused(benchmark::State& state) {
  step_fused(state, Head::kTime);
}
BENCHMARK(BM_MlpStepFused)->Arg(32)->Arg(64);

// The sigmoid reliability head, which set-up trains as often as the time
// head.
void BM_MlpStepFusedReliability(benchmark::State& state) {
  step_fused(state, Head::kReliability);
}
BENCHMARK(BM_MlpStepFusedReliability)->Arg(32)->Arg(64);

// The eight products of one batch-64 fused step on the time head
// (12 -> 32 -> 32 -> 1): the forward pass, then each layer's weight
// gradient and hidden gradient, with fused_mlp's strides. Arg: the tier
// (0 SSE2, 1 AVX-512F); a tier the host lacks is skipped.
void BM_Product(benchmark::State& state) {
  const auto tier = static_cast<nn::ProductTier>(state.range(0));
  if (!nn::product_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  struct Shape {
    std::size_t m, n, depth, a_row, a_col;
  };
  constexpr Shape kShapes[] = {
      {64, 32, 12, 12, 1}, {64, 32, 32, 32, 1}, {64, 1, 32, 32, 1},
      {1, 32, 64, 1, 1},   {64, 32, 1, 1, 1},   {32, 32, 64, 1, 32},
      {64, 32, 32, 32, 1}, {32, 12, 64, 1, 32}};
  Rng rng(23);
  std::vector<double> a(64 * 64);
  std::vector<double> b(64 * 32);
  std::vector<double> c(64 * 32);
  for (double& v : a) {
    v = rng.normal();
  }
  for (double& v : b) {
    v = rng.normal();
  }
  for (auto _ : state) {
    for (const Shape& s : kShapes) {
      nn::product(tier, s.m, s.n, s.depth, a.data(), s.a_row, s.a_col,
                  b.data(), c.data());
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Product)->Arg(0)->Arg(1);

// The step's two narrow products, alone: Args (tier, shape), shape 0 the
// first layer's weight gradient (32 x 12, depth 64, transposed A with
// a_col = 32), shape 1 the head's forward (64 x 1, depth 32). Both are
// bound by add latency unless a block holds enough independent sums.
void BM_ProductNarrow(benchmark::State& state) {
  const auto tier = static_cast<nn::ProductTier>(state.range(0));
  if (!nn::product_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  const bool head = state.range(1) == 1;
  const std::size_t m = head ? 64 : 32;
  const std::size_t n = head ? 1 : 12;
  const std::size_t depth = head ? 32 : 64;
  const std::size_t a_row = head ? 32 : 1;
  const std::size_t a_col = head ? 1 : 32;
  Rng rng(23);
  std::vector<double> a(64 * 32);
  std::vector<double> b(depth * n);
  std::vector<double> c(m * n);
  for (double& v : a) {
    v = rng.normal();
  }
  for (double& v : b) {
    v = rng.normal();
  }
  for (auto _ : state) {
    nn::product(tier, m, n, depth, a.data(), a_row, a_col, b.data(),
                c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProductNarrow)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// One Adam step over the time head's 1,505 parameters, the gradients of
// one batch-32 MSE step left in their slots.
void BM_AdamStep(benchmark::State& state) {
  auto inst = make_step_instance(32);
  nn::fused_mse_step(inst.model(), inst.opt, inst.x, inst.target,
                     inst.scale());
  double* weights = inst.cluster.time_model().linear_layers()[0].weight.data();
  for (auto _ : state) {
    inst.opt.step();
    benchmark::DoNotOptimize(weights);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdamStep);

// T-hat and A-hat for one engine round: 4 clusters x a batch of tasks.
struct PredictInstance {
  core::PlatformPredictor predictor;
  Matrix features;
};

PredictInstance make_predict_instance(std::size_t rows) {
  Rng rng(19);
  core::PlatformPredictor predictor(4, core::PredictorConfig{}, rng);
  Matrix features(rows, core::PredictorConfig{}.feature_dim);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = rng.normal();
  }
  return PredictInstance{std::move(predictor), std::move(features)};
}

// Arg: the batch's rows, 2 (the gateway's batches on steady) or 10
// (replay's).
void BM_PredictFused(benchmark::State& state) {
  auto inst =
      make_predict_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inst.predictor.predict_time_matrix(inst.features).data());
    benchmark::DoNotOptimize(
        inst.predictor.predict_reliability_matrix(inst.features).data());
  }
}
BENCHMARK(BM_PredictFused)->Arg(2)->Arg(10);

// Copies an M = 3 predictor's weights into another through text
// checkpoints, one stringstream per head, as the gateway set-up clones
// the pretrained predictor (6 heads, 9,030 doubles).
void BM_SaveLoadMlp(benchmark::State& state) {
  Rng rng(21);
  core::PlatformPredictor from(3, core::PredictorConfig{}, rng);
  core::PlatformPredictor to(3, core::PredictorConfig{}, rng);
  for (auto _ : state) {
    for (std::size_t i = 0; i < from.num_clusters(); ++i) {
      std::stringstream t_buf;
      nn::save_mlp(t_buf, from.cluster(i).time_model());
      nn::load_mlp(t_buf, to.cluster(i).time_model());
      std::stringstream a_buf;
      nn::save_mlp(a_buf, from.cluster(i).reliability_model());
      nn::load_mlp(a_buf, to.cluster(i).reliability_model());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SaveLoadMlp)->Unit(benchmark::kMicrosecond);

// train_tsm in the benchmark platform's set-up shape: M clusters of
// setting A, 100 profiled tasks, 250 epochs of minibatch 64. Wall time,
// since the fits run on the global pool's workers.
void BM_TrainTsm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto platform = sim::Platform::make_setting(sim::Setting::kA, m);
  sim::PseudoGnnEmbedder embedder;
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = 100;
  const sim::Dataset profile = build_dataset(platform, embedder, data_cfg);
  core::TsmConfig tsm;
  tsm.epochs = 250;
  for (auto _ : state) {
    state.PauseTiming();
    Rng init(0x0417e5ULL);
    core::PlatformPredictor predictor(m, core::PredictorConfig{}, init);
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::train_tsm(predictor, profile, tsm).seconds);
  }
}
BENCHMARK(BM_TrainTsm)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
