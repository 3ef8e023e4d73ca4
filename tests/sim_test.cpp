// Tests for the platform simulator: tasks, embeddings, cluster laws,
// datasets, speedup curves, and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/cluster.hpp"
#include "sim/dataset.hpp"
#include "sim/embedding.hpp"
#include "sim/failure.hpp"
#include "sim/platform.hpp"
#include "sim/speedup.hpp"
#include "sim/task.hpp"
#include "support/check.hpp"

namespace mfcp::sim {
namespace {

TaskDescriptor make_task(TaskFamily family = TaskFamily::kCnn,
                         DatasetKind dataset = DatasetKind::kCifar10,
                         int depth = 8, int width = 128, int batch = 64,
                         double fraction = 0.5) {
  TaskDescriptor t;
  t.family = family;
  t.dataset = dataset;
  t.depth = depth;
  t.width = width;
  t.batch_size = batch;
  t.dataset_fraction = fraction;
  return t;
}

// ----------------------------------------------------------------- task --

TEST(Task, ParamsGrowWithDepthAndWidth) {
  const auto small = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 4, 64);
  const auto deep = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 8, 64);
  const auto wide = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 4, 128);
  EXPECT_GT(deep.params_millions(), small.params_millions());
  EXPECT_GT(wide.params_millions(), small.params_millions());
}

TEST(Task, TransformerHeavierThanMlpAtSameSize) {
  const auto mlp = make_task(TaskFamily::kMlp);
  const auto tf = make_task(TaskFamily::kTransformer);
  EXPECT_GT(tf.params_millions(), mlp.params_millions());
}

TEST(Task, WorkloadGrowsWithDatasetSize) {
  const auto cifar = make_task(TaskFamily::kCnn, DatasetKind::kCifar10);
  const auto imagenet = make_task(TaskFamily::kCnn, DatasetKind::kImageNet);
  EXPECT_GT(imagenet.workload(), cifar.workload());
}

TEST(Task, WorkloadGrowsWithFraction) {
  const auto half = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 8, 128,
                              64, 0.5);
  const auto full = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 8, 128,
                              64, 1.0);
  EXPECT_GT(full.workload(), half.workload());
}

TEST(Task, WorkloadTailIsCompressed) {
  // Huge jobs stay in a range the exponential cluster law can absorb.
  const auto huge = make_task(TaskFamily::kTransformer,
                              DatasetKind::kImageNet, 31, 512, 256, 1.0);
  EXPECT_LT(huge.workload(), 100.0);
  EXPECT_GT(huge.workload(), 10.0);
}

TEST(Task, MemoryGrowsWithBatch) {
  const auto small = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 8,
                               128, 16);
  const auto big = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 8, 128,
                             256);
  EXPECT_GT(big.memory_gb(), small.memory_gb());
}

TEST(Task, CommIntensityInUnitInterval) {
  for (int f = 0; f < kNumTaskFamilies; ++f) {
    auto t = make_task(static_cast<TaskFamily>(f));
    EXPECT_GE(t.comm_intensity(), 0.0);
    EXPECT_LE(t.comm_intensity(), 1.0);
  }
}

TEST(Task, ToStringCoversAllKinds) {
  EXPECT_EQ(to_string(TaskFamily::kCnn), "CNN");
  EXPECT_EQ(to_string(TaskFamily::kTransformer), "Transformer");
  EXPECT_EQ(to_string(DatasetKind::kEuroparl), "Europarl");
}

TEST(TaskGenerator, RespectsFamilyDatasetPairing) {
  TaskGenerator gen(Rng{1});
  for (const auto& t : gen.sample_batch(200)) {
    if (t.family == TaskFamily::kTransformer ||
        t.family == TaskFamily::kRnn) {
      EXPECT_EQ(t.dataset, DatasetKind::kEuroparl);
    } else {
      EXPECT_NE(t.dataset, DatasetKind::kEuroparl);
    }
  }
}

TEST(TaskGenerator, ProducesDiverseFamilies) {
  TaskGenerator gen(Rng{2});
  std::set<int> families;
  for (const auto& t : gen.sample_batch(100)) {
    families.insert(static_cast<int>(t.family));
  }
  EXPECT_EQ(families.size(), static_cast<std::size_t>(kNumTaskFamilies));
}

TEST(TaskGenerator, DeterministicUnderSeed) {
  TaskGenerator a(Rng{3});
  TaskGenerator b(Rng{3});
  const auto ta = a.sample_batch(20);
  const auto tb = b.sample_batch(20);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ta[i].depth, tb[i].depth);
    EXPECT_EQ(ta[i].width, tb[i].width);
    EXPECT_EQ(static_cast<int>(ta[i].family),
              static_cast<int>(tb[i].family));
  }
}

// ------------------------------------------------------------ embedding --

TEST(Embedding, DeterministicAcrossInstances) {
  PseudoGnnEmbedder a;
  PseudoGnnEmbedder b;
  const auto t = make_task();
  EXPECT_EQ(a.embed(t), b.embed(t));
}

TEST(Embedding, OutputDimMatchesConfig) {
  EmbedderConfig cfg;
  cfg.output_dim = 7;
  PseudoGnnEmbedder e(cfg);
  EXPECT_EQ(e.embed(make_task()).size(), 7u);
  EXPECT_EQ(e.output_dim(), 7u);
}

TEST(Embedding, DistinguishesDifferentTasks) {
  PseudoGnnEmbedder e;
  const auto za = e.embed(make_task(TaskFamily::kCnn));
  const auto zb = e.embed(make_task(TaskFamily::kTransformer,
                                    DatasetKind::kEuroparl));
  double dist = 0.0;
  for (std::size_t i = 0; i < za.size(); ++i) {
    dist += (za[i] - zb[i]) * (za[i] - zb[i]);
  }
  EXPECT_GT(dist, 1e-4);
}

TEST(Embedding, BatchMatchesSingle) {
  PseudoGnnEmbedder e;
  std::vector<TaskDescriptor> tasks = {make_task(), make_task(
      TaskFamily::kRnn, DatasetKind::kEuroparl, 4, 64, 32, 0.2)};
  const Matrix batch = e.embed_batch(tasks);
  ASSERT_EQ(batch.rows(), 2u);
  const auto z0 = e.embed(tasks[0]);
  for (std::size_t c = 0; c < e.output_dim(); ++c) {
    EXPECT_DOUBLE_EQ(batch(0, c), z0[c]);
  }
}

TEST(Embedding, DifferentSeedsGiveDifferentMaps) {
  EmbedderConfig ca;
  EmbedderConfig cb;
  cb.seed = ca.seed + 1;
  PseudoGnnEmbedder a(ca);
  PseudoGnnEmbedder b(cb);
  EXPECT_NE(a.embed(make_task()), b.embed(make_task()));
}

// -------------------------------------------------------------- cluster --

TEST(Cluster, ExecutionTimePositive) {
  for (const auto& profile : cluster_catalog()) {
    Cluster c(profile);
    EXPECT_GT(c.execution_time(make_task()), 0.0);
  }
}

TEST(Cluster, ExponentialLawIsSuperlinear) {
  ClusterProfile lin;
  lin.law = PerfLaw::kLinear;
  ClusterProfile exp = lin;
  exp.law = PerfLaw::kExponential;
  exp.law_param = 0.08;
  Cluster linear(lin);
  Cluster expo(exp);
  const auto small = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 2, 32,
                               16, 0.05);
  const auto large = make_task(TaskFamily::kTransformer,
                               DatasetKind::kEuroparl, 24, 512, 256, 1.0);
  const double ratio_small =
      expo.execution_time(small) / linear.execution_time(small);
  const double ratio_large =
      expo.execution_time(large) / linear.execution_time(large);
  EXPECT_GT(ratio_large, ratio_small);  // grows faster than linear
}

TEST(Cluster, SaturatingLawIsSublinearAtScale) {
  ClusterProfile lin;
  lin.law = PerfLaw::kLinear;
  ClusterProfile sat = lin;
  sat.law = PerfLaw::kSaturating;
  sat.law_param = 0.05;
  Cluster linear(lin);
  Cluster satur(sat);
  const auto large = make_task(TaskFamily::kTransformer,
                               DatasetKind::kEuroparl, 24, 512, 256, 1.0);
  const auto small = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 2, 32,
                               16, 0.05);
  const double ratio_small =
      satur.execution_time(small) / linear.execution_time(small);
  const double ratio_large =
      satur.execution_time(large) / linear.execution_time(large);
  EXPECT_LT(ratio_large, ratio_small);
}

TEST(Cluster, FamilyAffinityShiftsTimes) {
  // Two clusters identical except transformer affinity: the same
  // transformer task must take exactly 2x longer on the penalized one.
  ClusterProfile base;
  ClusterProfile penalized = base;
  penalized.family_affinity = {1.0, 2.0, 1.0, 1.0};
  Cluster fast(base);
  Cluster slow(penalized);
  const auto tf =
      make_task(TaskFamily::kTransformer, DatasetKind::kEuroparl);
  EXPECT_NEAR(slow.execution_time(tf) / fast.execution_time(tf), 2.0, 1e-9);
  const auto cnn = make_task(TaskFamily::kCnn);
  EXPECT_NEAR(slow.execution_time(cnn) / fast.execution_time(cnn), 1.0,
              1e-9);
}

TEST(Cluster, ReliabilityIsProbability) {
  for (const auto& profile : cluster_catalog()) {
    Cluster c(profile);
    TaskGenerator gen(Rng{5});
    for (const auto& t : gen.sample_batch(50)) {
      const double a = c.reliability(t);
      EXPECT_GE(a, 0.01);
      EXPECT_LE(a, 0.999);
    }
  }
}

TEST(Cluster, BiggerJobsLessReliable) {
  ClusterProfile p;
  p.memory_fragility = 0.5;
  Cluster c(p);
  const auto small = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 4, 64,
                               16);
  const auto big = make_task(TaskFamily::kCnn, DatasetKind::kCifar10, 24, 512,
                             256);
  EXPECT_GT(c.reliability(small), c.reliability(big));
}

TEST(Cluster, MeasurementNoiseIsUnbiasedOnLogScale) {
  ClusterProfile p;
  p.time_noise_sigma = 0.1;
  Cluster c(p);
  const auto t = make_task();
  Rng rng(7);
  double log_sum = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    log_sum += std::log(c.measure_time(t, rng));
  }
  EXPECT_NEAR(log_sum / reps, std::log(c.execution_time(t)), 0.01);
}

TEST(Cluster, MeasuredReliabilityClamped) {
  ClusterProfile p;
  p.reliability_base = 10.0;  // essentially 1.0
  p.reliability_noise_sigma = 0.5;
  Cluster c(p);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const double a = c.measure_reliability(make_task(), rng);
    EXPECT_GE(a, 0.01);
    EXPECT_LE(a, 0.999);
  }
}

TEST(Cluster, CatalogProfilesAreDistinct) {
  const auto catalog = cluster_catalog();
  EXPECT_GE(catalog.size(), 5u);
  std::set<std::string> names;
  for (const auto& p : catalog) {
    names.insert(p.name);
  }
  EXPECT_EQ(names.size(), catalog.size());
}

TEST(Cluster, SampleClustersJittersProfiles) {
  Rng rng(11);
  const auto clusters = sample_clusters(6, rng);
  ASSERT_EQ(clusters.size(), 6u);
  const auto catalog = cluster_catalog();
  // Jitter means no sampled cluster exactly matches a catalog speed.
  for (const auto& c : clusters) {
    for (const auto& p : catalog) {
      EXPECT_NE(c.profile().base_seconds_per_unit, p.base_seconds_per_unit);
    }
  }
}

TEST(Cluster, InvalidProfileRejected) {
  ClusterProfile p;
  p.base_seconds_per_unit = 0.0;
  EXPECT_THROW(Cluster{p}, ContractError);
}

// -------------------------------------------------------------- speedup --

TEST(Speedup, ExclusiveIsConstantOne) {
  const auto z = SpeedupCurve::exclusive();
  EXPECT_TRUE(z.is_constant());
  EXPECT_DOUBLE_EQ(z.value(1.0), 1.0);
  EXPECT_DOUBLE_EQ(z.value(50.0), 1.0);
  EXPECT_DOUBLE_EQ(z.derivative(3.0), 0.0);
}

TEST(Speedup, ExponentialDecayBounds) {
  const auto z = SpeedupCurve::exponential_decay(0.6, 0.5);
  EXPECT_FALSE(z.is_constant());
  EXPECT_DOUBLE_EQ(z.value(1.0), 1.0);
  EXPECT_NEAR(z.value(1e9), 0.6, 1e-9);
  for (double n : {1.5, 2.0, 5.0, 20.0}) {
    EXPECT_GT(z.value(n), 0.6);
    EXPECT_LT(z.value(n), 1.0);
  }
}

TEST(Speedup, MonotoneDecreasing) {
  const auto z = SpeedupCurve::exponential_decay(0.6, 0.4);
  double prev = z.value(1.0);
  for (double n = 1.5; n < 10.0; n += 0.5) {
    EXPECT_LT(z.value(n), prev);
    prev = z.value(n);
  }
}

TEST(Speedup, DerivativeMatchesFiniteDifference) {
  const auto z = SpeedupCurve::exponential_decay(0.6, 0.7);
  for (double n : {1.5, 2.0, 4.0, 8.0}) {
    const double fd = (z.value(n + 1e-6) - z.value(n - 1e-6)) / 2e-6;
    EXPECT_NEAR(z.derivative(n), fd, 1e-6);
  }
}

TEST(Speedup, BelowOneTaskNoSharingEffect) {
  const auto z = SpeedupCurve::exponential_decay(0.6, 0.5);
  EXPECT_DOUBLE_EQ(z.value(0.3), 1.0);
  EXPECT_DOUBLE_EQ(z.derivative(0.3), 0.0);
}

TEST(Speedup, InvalidParamsRejected) {
  EXPECT_THROW(SpeedupCurve::exponential_decay(0.0, 1.0), ContractError);
  EXPECT_THROW(SpeedupCurve::exponential_decay(1.5, 1.0), ContractError);
  EXPECT_THROW(SpeedupCurve::exponential_decay(0.6, 0.0), ContractError);
}

// ------------------------------------------------------------- platform --

TEST(Platform, SettingsAreDistinctButReproducible) {
  const auto a1 = Platform::make_setting(Setting::kA, 3);
  const auto a2 = Platform::make_setting(Setting::kA, 3);
  const auto b = Platform::make_setting(Setting::kB, 3);
  EXPECT_EQ(a1.cluster(0).profile().name, a2.cluster(0).profile().name);
  EXPECT_DOUBLE_EQ(a1.cluster(0).profile().base_seconds_per_unit,
                   a2.cluster(0).profile().base_seconds_per_unit);
  bool any_different = false;
  for (std::size_t i = 0; i < 3; ++i) {
    if (a1.cluster(i).profile().name != b.cluster(i).profile().name ||
        a1.cluster(i).profile().base_seconds_per_unit !=
            b.cluster(i).profile().base_seconds_per_unit) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Platform, MetricMatricesHaveCorrectShapesAndRanges) {
  const auto platform = Platform::make_setting(Setting::kA, 4);
  TaskGenerator gen(Rng{13});
  const auto tasks = gen.sample_batch(10);
  const Matrix t = platform.true_times(tasks);
  const Matrix a = platform.true_reliability(tasks);
  ASSERT_EQ(t.rows(), 4u);
  ASSERT_EQ(t.cols(), 10u);
  ASSERT_EQ(a.rows(), 4u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GT(t[i], 0.0);
    EXPECT_GE(a[i], 0.0);
    EXPECT_LE(a[i], 1.0);
  }
}

TEST(Platform, HeterogeneityCreatesRankDisagreements) {
  // The Fig. 2 premise: different clusters prefer different tasks, so the
  // per-task argmin over clusters is not constant.
  const auto platform = Platform::make_setting(Setting::kA, 3);
  TaskGenerator gen(Rng{17});
  const auto tasks = gen.sample_batch(60);
  const Matrix t = platform.true_times(tasks);
  std::set<std::size_t> winners;
  for (std::size_t j = 0; j < t.cols(); ++j) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.rows(); ++i) {
      if (t(i, j) < t(best, j)) {
        best = i;
      }
    }
    winners.insert(best);
  }
  EXPECT_GE(winners.size(), 2u);
}

// -------------------------------------------------------------- dataset --

TEST(Dataset, BuildShapesAndGroundTruthConsistency) {
  const auto platform = Platform::make_setting(Setting::kB, 3);
  PseudoGnnEmbedder embedder;
  DatasetConfig cfg;
  cfg.num_tasks = 40;
  const auto data = build_dataset(platform, embedder, cfg);
  EXPECT_EQ(data.num_tasks(), 40u);
  EXPECT_EQ(data.num_clusters(), 3u);
  EXPECT_EQ(data.feature_dim(), embedder.output_dim());
  // True labels match the platform exactly.
  for (std::size_t j = 0; j < 40; ++j) {
    EXPECT_DOUBLE_EQ(data.true_times(0, j),
                     platform.cluster(0).execution_time(data.tasks[j]));
  }
}

TEST(Dataset, NoisyLabelsDifferFromTruthButCorrelate) {
  const auto platform = Platform::make_setting(Setting::kB, 3);
  PseudoGnnEmbedder embedder;
  DatasetConfig cfg;
  cfg.num_tasks = 50;
  const auto data = build_dataset(platform, embedder, cfg);
  double max_rel_error = 0.0;
  bool any_diff = false;
  for (std::size_t i = 0; i < data.times.size(); ++i) {
    any_diff = any_diff || data.times[i] != data.true_times[i];
    max_rel_error =
        std::max(max_rel_error,
                 std::abs(data.times[i] / data.true_times[i] - 1.0));
  }
  EXPECT_TRUE(any_diff);
  EXPECT_LT(max_rel_error, 1.5);  // noise, not garbage
}

TEST(Dataset, SubsetSelectsColumns) {
  const auto platform = Platform::make_setting(Setting::kA, 2);
  PseudoGnnEmbedder embedder;
  DatasetConfig cfg;
  cfg.num_tasks = 12;
  const auto data = build_dataset(platform, embedder, cfg);
  const auto sub = data.subset({3, 7});
  EXPECT_EQ(sub.num_tasks(), 2u);
  EXPECT_DOUBLE_EQ(sub.times(1, 0), data.times(1, 3));
  EXPECT_DOUBLE_EQ(sub.features(1, 2), data.features(7, 2));
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  const auto platform = Platform::make_setting(Setting::kA, 2);
  PseudoGnnEmbedder embedder;
  DatasetConfig cfg;
  cfg.num_tasks = 5;
  const auto data = build_dataset(platform, embedder, cfg);
  EXPECT_THROW(data.subset({99}), ContractError);
}

TEST(Dataset, SplitPartitionsWithoutOverlap) {
  const auto platform = Platform::make_setting(Setting::kA, 2);
  PseudoGnnEmbedder embedder;
  DatasetConfig cfg;
  cfg.num_tasks = 30;
  const auto data = build_dataset(platform, embedder, cfg);
  Rng rng(19);
  const auto [train, test] = split_dataset(data, 0.7, rng);
  EXPECT_EQ(train.num_tasks() + test.num_tasks(), 30u);
  EXPECT_EQ(train.num_tasks(), 21u);
}

// -------------------------------------------------------------- failure --

TEST(Failure, EmpiricalReliabilityConvergesToTruth) {
  Cluster c(cluster_catalog()[0]);
  const auto t = make_task();
  Rng rng(23);
  const double est = empirical_reliability(c, t, rng, 50000);
  EXPECT_NEAR(est, c.reliability(t), 0.02);
}

TEST(Failure, ExecuteAssignmentAccounting) {
  const auto platform = Platform::make_setting(Setting::kA, 3);
  TaskGenerator gen(Rng{29});
  const auto tasks = gen.sample_batch(6);
  const std::vector<int> assignment = {0, 1, 2, 0, 1, 2};
  Rng rng(31);
  const auto outcome = execute_assignment(platform, tasks, assignment, rng);
  EXPECT_EQ(outcome.succeeded.size(), 6u);
  EXPECT_GT(outcome.makespan_hours, 0.0);
  for (int attempts : outcome.attempts) {
    EXPECT_GE(attempts, 1);
    EXPECT_LE(attempts, 3);
  }
  EXPECT_GE(outcome.empirical_success_rate, 0.0);
  EXPECT_LE(outcome.empirical_success_rate, 1.0);
}

TEST(Failure, BadAssignmentRejected) {
  const auto platform = Platform::make_setting(Setting::kA, 2);
  TaskGenerator gen(Rng{37});
  const auto tasks = gen.sample_batch(2);
  Rng rng(1);
  EXPECT_THROW(execute_assignment(platform, tasks, {0, 5}, rng),
               ContractError);
  EXPECT_THROW(execute_assignment(platform, tasks, {0}, rng), ContractError);
}

TEST(Failure, RetriesIncreaseSuccess) {
  // With up to 3 attempts, eventual completion rate exceeds first-attempt
  // success on a flaky cluster.
  ClusterProfile p;
  p.reliability_base = 0.0;  // ~0.35 after comm penalty
  Cluster c(p);
  const auto platform = Platform(std::vector<Cluster>{c});
  TaskGenerator gen(Rng{41});
  const auto tasks = gen.sample_batch(300);
  const std::vector<int> assignment(tasks.size(), 0);
  Rng rng(43);
  const auto outcome =
      execute_assignment(platform, tasks, assignment, rng, 3);
  int completed = 0;
  int first_try = 0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    first_try += outcome.succeeded[j] ? 1 : 0;
    completed += outcome.attempts[j] < 3 || outcome.succeeded[j] ? 1 : 0;
  }
  EXPECT_GT(completed, first_try);
}

}  // namespace
}  // namespace mfcp::sim
