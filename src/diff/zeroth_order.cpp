#include "diff/zeroth_order.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace mfcp::diff {

double optimal_delta(double sigma_f, double beta, std::size_t samples) {
  MFCP_CHECK(sigma_f > 0.0 && beta > 0.0 && samples > 0,
             "optimal_delta needs positive inputs");
  return std::pow(2.0 * sigma_f * sigma_f /
                      (beta * beta * static_cast<double>(samples)),
                  0.25);
}

namespace {

/// One perturbation sample: the Gaussian directions for the perturbed
/// entries of T̂ and of Â.
struct Sample {
  std::vector<double> vt;
  std::vector<double> va;
};

std::vector<Sample> draw_samples(std::size_t count, std::size_t dim,
                                 Rng& rng) {
  std::vector<Sample> samples(count);
  for (auto& s : samples) {
    s.vt.resize(dim);
    s.va.resize(dim);
    for (std::size_t k = 0; k < dim; ++k) {
      s.vt[k] = rng.normal();
    }
    for (std::size_t k = 0; k < dim; ++k) {
      s.va[k] = rng.normal();
    }
  }
  return samples;
}

/// Runs body(s) for all sample indices, on the pool when provided.
template <typename Body>
void for_samples(std::size_t count, ThreadPool* pool, Body&& body) {
  if (pool != nullptr) {
    parallel_for(*pool, count, body);
  } else {
    for (std::size_t s = 0; s < count; ++s) {
      body(s);
    }
  }
}

}  // namespace

ScalarLoss matching_surrogate(MatchingSolver solver, Matrix upstream) {
  return [solver = std::move(solver), upstream = std::move(upstream)](
             const Matrix& t, const Matrix& a) {
    return dot(upstream, solver(t, a));
  };
}

Gradients estimate_gradients(const ScalarLoss& loss, const Matrix& t_hat,
                             const Matrix& a_hat, double base,
                             std::size_t row_begin, std::size_t row_end,
                             const ForwardGradientConfig& config, Rng& rng,
                             ThreadPool* pool) {
  MFCP_CHECK(t_hat.same_shape(a_hat), "T and A must both be M x N");
  MFCP_CHECK(row_begin < row_end && row_end <= t_hat.rows(),
             "perturbed row range out of bounds");
  MFCP_CHECK(config.samples > 0, "need at least one sample");
  MFCP_CHECK(config.delta > 0.0, "perturbation size must be positive");

  // The perturbed rows are one contiguous run of the row-major matrices.
  const std::size_t offset = row_begin * t_hat.cols();
  const std::size_t dim = (row_end - row_begin) * t_hat.cols();
  const double delta_a = config.reliability_delta();
  const auto samples = draw_samples(config.samples, dim, rng);

  // Directional coefficients (L(perturbed) - base) / Δ, one per solve.
  std::vector<double> coeff_t(config.samples, 0.0);
  std::vector<double> coeff_a(config.samples, 0.0);

  for_samples(config.samples, pool, [&](std::size_t s) {
    Matrix t_pert = t_hat;  // lines 6-7 of Algorithm 2
    for (std::size_t k = 0; k < dim; ++k) {
      t_pert[offset + k] += config.delta * samples[s].vt[k];
    }
    coeff_t[s] = (loss(t_pert, a_hat) - base) / config.delta;  // line 8

    Matrix a_pert = a_hat;
    for (std::size_t k = 0; k < dim; ++k) {
      a_pert[offset + k] += delta_a * samples[s].va[k];
    }
    coeff_a[s] = (loss(t_hat, a_pert) - base) / delta_a;
  });

  // Lines 9-11: aggregate directional derivatives into the gradient.
  Gradients out{Matrix::zeros(t_hat.rows(), t_hat.cols()),
                Matrix::zeros(t_hat.rows(), t_hat.cols())};
  const double inv_s = 1.0 / static_cast<double>(config.samples);
  for (std::size_t s = 0; s < config.samples; ++s) {
    for (std::size_t k = 0; k < dim; ++k) {
      out.dt[offset + k] += inv_s * coeff_t[s] * samples[s].vt[k];
      out.da[offset + k] += inv_s * coeff_a[s] * samples[s].va[k];
    }
  }
  return out;
}

}  // namespace mfcp::diff
