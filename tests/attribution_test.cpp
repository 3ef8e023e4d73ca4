// Tests for per-round regret attribution: the telescoping decomposition
// (core::attribute_regret), its exactness invariant, the traced deployment
// pipeline it consumes, and the obs-side recorder.
#include <gtest/gtest.h>

#include <cmath>

#include "mfcp/regret.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "sim/dataset.hpp"

namespace mfcp::core {
namespace {

sim::Dataset tiny_dataset(std::size_t tasks = 24, std::size_t clusters = 3) {
  const auto platform =
      sim::Platform::make_setting(sim::Setting::kA, clusters);
  sim::PseudoGnnEmbedder embedder;
  sim::DatasetConfig cfg;
  cfg.num_tasks = tasks;
  return build_dataset(platform, embedder, cfg);
}

matching::MatchingProblem truth_problem() {
  const auto data = tiny_dataset();
  const auto sub = data.subset({0, 2, 4, 6, 8, 10});
  matching::MatchingProblem truth;
  truth.times = sub.true_times;
  truth.reliability = sub.true_reliability;
  truth.gamma = 0.6;
  return truth;
}

TEST(Attribution, TracedDeployMatchesUntracedAssignment) {
  const auto truth = truth_problem();
  EvaluationConfig cfg;
  const DeployTrace trace = deploy_matching_traced(truth, cfg);
  EXPECT_EQ(trace.assignment, deploy_matching(truth, cfg));
  EXPECT_EQ(trace.relaxed.x.rows(), truth.num_clusters());
  EXPECT_EQ(trace.relaxed.x.cols(), truth.num_tasks());
  EXPECT_EQ(trace.assignment.size(), truth.num_tasks());
}

TEST(Attribution, IdenticalChainsGiveAllZeroTerms) {
  // Deployed == reference (perfect predictions): every per-stage gap is a
  // difference of identical quantities, and the realized regret is zero.
  const auto truth = truth_problem();
  EvaluationConfig cfg;
  const DeployTrace trace = deploy_matching_traced(truth, cfg);
  const obs::RegretBreakdown b = attribute_regret(truth, trace, trace, cfg);
  EXPECT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(b.pred_gap, 0.0);
  EXPECT_DOUBLE_EQ(b.solver_gap, 0.0);
  EXPECT_DOUBLE_EQ(b.rounding_gap, 0.0);
  EXPECT_DOUBLE_EQ(b.admission_gap, 0.0);
  EXPECT_DOUBLE_EQ(b.total, 0.0);
  EXPECT_TRUE(b.exact());
}

TEST(Attribution, ExactOnPerturbedPredictions) {
  // A deliberately wrong prediction chain: the decomposition must still
  // telescope to the realized regret within the 1e-6 acceptance tolerance,
  // and the total must match an independent end-to-end evaluation.
  const auto truth = truth_problem();
  Matrix t_hat = truth.times;
  for (std::size_t i = 0; i < t_hat.rows(); ++i) {
    for (std::size_t j = 0; j < t_hat.cols(); ++j) {
      // Deterministic, sign-alternating multiplicative error up to 60%.
      const double wobble =
          0.6 * (((i * 31 + j * 17) % 7) / 6.0) * ((i + j) % 2 == 0 ? 1 : -1);
      t_hat(i, j) *= 1.0 + wobble;
    }
  }
  const auto predicted = truth.with_metrics(t_hat, truth.reliability);

  EvaluationConfig cfg;
  const DeployTrace dep = deploy_matching_traced(predicted, cfg);
  const DeployTrace ref = deploy_matching_traced(truth, cfg);
  const obs::RegretBreakdown b = attribute_regret(truth, dep, ref, cfg);

  EXPECT_TRUE(b.valid);
  EXPECT_TRUE(b.exact()) << "terms " << b.term_sum() << " vs total "
                         << b.total;
  const MatchOutcome outcome =
      evaluate_assignment(truth, dep.assignment, ref.assignment);
  EXPECT_NEAR(b.total, outcome.regret, 1e-9);
  EXPECT_DOUBLE_EQ(b.admission_gap, 0.0);
  EXPECT_GE(b.solver_residual, 0.0);
}

TEST(Attribution, AdmissionLossEntersBothSidesOfTheInvariant) {
  const auto truth = truth_problem();
  EvaluationConfig cfg;
  const DeployTrace trace = deploy_matching_traced(truth, cfg);
  AttributionConfig attr;
  attr.admission_loss = 0.7125;
  const obs::RegretBreakdown b =
      attribute_regret(truth, trace, trace, cfg, attr);
  EXPECT_DOUBLE_EQ(b.admission_gap, 0.7125);
  EXPECT_DOUBLE_EQ(b.total, 0.7125);  // realized regret is zero here
  EXPECT_TRUE(b.exact());
}

TEST(Attribution, PolishOfCappedSolvesKeepsTheInvariant) {
  // Solves stopped by their iteration cap are polished (the converged
  // ones skip it); the polish moves the pred/solver split but can never
  // break the telescoping sum.
  const auto truth = truth_problem();
  Matrix t_hat = truth.times;
  t_hat(0, 0) *= 3.0;
  t_hat(1, 2) *= 0.4;
  const auto predicted = truth.with_metrics(t_hat, truth.reliability);
  // The default objective is solved exactly in its price dual; the
  // linear-cost ablation runs mirror descent, which stops at this cap.
  EvaluationConfig cfg;
  cfg.linear_cost = true;
  cfg.solver.max_iterations = 2;
  const DeployTrace dep = deploy_matching_traced(predicted, cfg);
  const DeployTrace ref = deploy_matching_traced(truth, cfg);
  ASSERT_FALSE(dep.relaxed.converged);
  ASSERT_FALSE(ref.relaxed.converged);
  const obs::RegretBreakdown b = attribute_regret(truth, dep, ref, cfg);
  EXPECT_TRUE(b.valid);
  EXPECT_TRUE(b.exact());
  EXPECT_NE(b.solver_gap, 0.0);
}

// -------------------------------------------------------------- recorder --

TEST(AttributionRecorder, CountsAndObservesWhenBound) {
  obs::MetricsRegistry registry;
  obs::AttributionRecorder recorder(&registry);

  obs::RegretBreakdown exact_b;
  exact_b.pred_gap = 0.25;
  exact_b.solver_gap = 0.05;
  exact_b.rounding_gap = -0.1;
  exact_b.admission_gap = 0.0;
  exact_b.total = 0.2;
  exact_b.valid = true;
  recorder.record(exact_b);

  obs::RegretBreakdown inexact_b = exact_b;
  inexact_b.total = 0.5;  // off by 0.3 >> tolerance
  recorder.record(inexact_b);

  obs::RegretBreakdown invalid_b;  // valid == false: must be ignored
  recorder.record(invalid_b);

  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.inexact(), 1u);

  const auto snapshot = registry.snapshot();
  bool saw_pred = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "mfcp_regret_gap{term=\"prediction\"}") {
      saw_pred = true;
      EXPECT_EQ(h.count, 2u);
      EXPECT_NEAR(h.sum, 0.5, 1e-12);
    }
  }
  EXPECT_TRUE(saw_pred);
  bool saw_rounds = false;
  bool saw_inexact = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "mfcp_regret_attributed_rounds_total") {
      saw_rounds = true;
      EXPECT_EQ(value, 2u);
    }
    if (name == "mfcp_regret_attribution_inexact_total") {
      saw_inexact = true;
      EXPECT_EQ(value, 1u);
    }
  }
  EXPECT_TRUE(saw_rounds);
  EXPECT_TRUE(saw_inexact);
}

TEST(AttributionRecorder, UnboundRecorderStillCounts) {
  obs::AttributionRecorder recorder;  // no registry
  obs::RegretBreakdown b;
  b.pred_gap = 1.0;
  b.total = 1.0;
  b.valid = true;
  recorder.record(b);
  EXPECT_EQ(recorder.recorded(), 1u);
  EXPECT_EQ(recorder.inexact(), 0u);
}

TEST(RegretBreakdown, ExactToleranceBoundary) {
  obs::RegretBreakdown b;
  b.pred_gap = 0.5;
  b.total = 0.5 + 5e-7;
  b.valid = true;
  EXPECT_TRUE(b.exact());  // within the 1e-6 default
  b.total = 0.5 + 2e-6;
  EXPECT_FALSE(b.exact());
  EXPECT_TRUE(b.exact(1e-5));
  EXPECT_DOUBLE_EQ(b.term_sum(), 0.5);
}

}  // namespace
}  // namespace mfcp::core
