// Tests for the neural-network module: layers, MLPs, the optimizer,
// initialization, the fused kernels against the autograd tape, and
// checkpoint round-trips.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/mlp_tape.hpp"
#include "autograd/ops.hpp"
#include "nn/fused_mlp.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "support/check.hpp"

namespace mfcp::nn {
namespace {

using autograd::Variable;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal(0.0, scale);
  }
  return m;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The model's outputs for a constant input, off the tape.
Matrix predict(Mlp& mlp, const Matrix& x) {
  Matrix out(x.rows(), mlp.config().output_dim);
  fused_forward(mlp, x, 1.0, out.flat());
  return out;
}

// ----------------------------------------------------------------- init --

TEST(Init, HeNormalScaleRoughlyCorrect) {
  Rng rng(2);
  const Matrix w = he_normal(100, 100, 100, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sq += w[i] * w[i];
  }
  const double observed = std::sqrt(sq / static_cast<double>(w.size()));
  EXPECT_NEAR(observed, std::sqrt(2.0 / 100.0), 0.02);
}

TEST(Init, ZerosInitIsZero) {
  const Matrix z = zeros_init(3, 4);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_EQ(z[i], 0.0);
  }
}

// --------------------------------------------------------------- linear --

TEST(Linear, ShapesItsParametersAndZeroGradients) {
  Rng rng(4);
  const Linear lin(3, 5, rng);
  EXPECT_EQ(lin.in_features(), 3u);
  EXPECT_EQ(lin.out_features(), 5u);
  EXPECT_TRUE(lin.weight.same_shape(Matrix(5, 3)));
  EXPECT_TRUE(same_bits(lin.bias, Matrix(1, 5)));
  EXPECT_TRUE(same_bits(lin.weight_grad, Matrix(5, 3)));
  EXPECT_TRUE(same_bits(lin.bias_grad, Matrix(1, 5)));
}

// ------------------------------------------------------------------ mlp --

TEST(Mlp, OutputShapeMatchesConfig) {
  Rng rng(5);
  MlpConfig cfg;
  cfg.input_dim = 7;
  cfg.hidden = {16, 8};
  cfg.output_dim = 1;
  Mlp mlp(cfg, rng);
  const Matrix out = predict(mlp, Matrix(4, 7, 0.5));
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 1u);
}

TEST(Mlp, RejectsWrongInputWidth) {
  Rng rng(3);
  MlpConfig cfg;
  cfg.input_dim = 4;
  Mlp mlp(cfg, rng);
  EXPECT_THROW(predict(mlp, Matrix(1, 3)), ContractError);
}

TEST(Mlp, SoftplusHeadIsPositive) {
  Rng rng(7);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = {8};
  cfg.output_activation = Activation::kSoftplus;
  Mlp mlp(cfg, rng);
  const Matrix out = predict(mlp, random_matrix(10, 4, rng, 3.0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GT(out[i], 0.0);
  }
}

TEST(Mlp, SigmoidHeadInUnitInterval) {
  Rng rng(8);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = {8};
  cfg.output_activation = Activation::kSigmoid;
  Mlp mlp(cfg, rng);
  const Matrix out = predict(mlp, random_matrix(10, 4, rng, 3.0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GT(out[i], 0.0);
    EXPECT_LT(out[i], 1.0);
  }
}

TEST(Mlp, LinearLayersEnumerated) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.hidden = {8, 8};
  Mlp mlp(cfg, rng);
  EXPECT_EQ(mlp.linear_layers().size(), 3u);
  EXPECT_EQ(mlp.parameters().size(), 6u);
}

TEST(Mlp, InvalidConfigThrows) {
  Rng rng(10);
  MlpConfig cfg;
  cfg.input_dim = 0;
  EXPECT_THROW(Mlp(cfg, rng), ContractError);
}

TEST(Mlp, ZeroGradClearsAll) {
  Rng rng(11);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {4};
  Mlp mlp(cfg, rng);
  const Matrix x = random_matrix(5, 3, rng);
  const Matrix dy = random_matrix(5, 1, rng);
  fused_backward(mlp, x, dy.flat(), 1.0);
  EXPECT_FALSE(same_bits(mlp.linear_layers()[0].weight_grad, Matrix(4, 3)));
  mlp.zero_grad();
  for (const Parameter& p : mlp.parameters()) {
    EXPECT_TRUE(same_bits(*p.grad, Matrix(p.value->rows(), p.value->cols())));
  }
}

// ------------------------------------------------------------ optimizer --

TEST(Adam, RejectsAGradientOfAnotherShape) {
  Matrix w(2, 1);
  Matrix g(1, 2);
  EXPECT_THROW(Adam({{&w, &g}}, 0.1), ContractError);
}

TEST(Adam, ConvergesOnQuadratic) {
  // sum(w * w), whose gradient is 2w.
  Matrix w{{5.0}, {-3.0}};
  Matrix g(2, 1);
  Adam opt({{&w, &g}}, 0.1);
  for (int i = 0; i < 300; ++i) {
    for (std::size_t k = 0; k < w.size(); ++k) {
      g[k] = 2.0 * w[k];
    }
    opt.step();
  }
  EXPECT_NEAR(w[0], 0.0, 1e-3);
  EXPECT_NEAR(w[1], 0.0, 1e-3);
}

TEST(Adam, FirstStepSizeIsLearningRate) {
  // With bias correction the first Adam step is ±lr regardless of gradient
  // magnitude.
  Matrix w{{1.0}};
  Matrix g{{100.0}};
  Adam opt({{&w, &g}}, 0.01);
  opt.step();
  EXPECT_NEAR(w[0], 1.0 - 0.01, 1e-6);
}

// The element loop Adam::step ran before it worked on raw spans: one
// parameter at a time, every element through Matrix::operator[].
class ElementwiseAdam {
 public:
  ElementwiseAdam(double lr, double beta1, double beta2, double eps)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void step(std::vector<Matrix>& weights, const std::vector<Matrix>& grads) {
    ++t_;
    m_.resize(weights.size());
    v_.resize(weights.size());
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const Matrix& g = grads[i];
      if (g.empty()) {
        continue;
      }
      if (m_[i].empty()) {
        m_[i] = Matrix::zeros(g.rows(), g.cols());
        v_[i] = Matrix::zeros(g.rows(), g.cols());
      }
      Matrix& m = m_[i];
      Matrix& v = v_[i];
      Matrix& w = weights[i];
      for (std::size_t k = 0; k < g.size(); ++k) {
        m[k] = beta1_ * m[k] + (1.0 - beta1_) * g[k];
        v[k] = beta2_ * v[k] + (1.0 - beta2_) * g[k] * g[k];
        const double mhat = m[k] / bc1;
        const double vhat = v[k] / bc2;
        w[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    }
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

// A gradient entry: mostly normals over several magnitudes, with exact
// zeros of both signs, subnormals of both signs and large values mixed in.
double adam_test_gradient(std::size_t k, Rng& rng) {
  switch (k % 9) {
    case 2:
      return 0.0;
    case 4:
      return -0.0;
    case 5:
      return (rng.bernoulli(0.5) ? -1.0 : 1.0) *
             std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.uniform_index(1000));
    case 7:
      return rng.normal(0.0, 1e6);
    default:
      return -std::abs(rng.normal(0.0, 1.0)) * (k % 2 == 0 ? 1.0 : -1e-3);
  }
}

TEST(Adam, StepMatchesElementwiseReferenceBitForBit) {
  struct Hyper {
    double lr, beta1, beta2, eps;
  };
  for (const Hyper h : {Hyper{1e-2, 0.9, 0.999, 1e-8},
                        Hyper{3e-3, 0.8, 0.95, 1e-6}}) {
    // Sizes 1, 2, 3, 33 and the time head's 1,505 parameters, as a
    // column, a row and a matrix; the last parameter's gradient stays
    // zero, which must leave its value as the reference leaves a
    // parameter it skips.
    const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
        {1, 1}, {1, 2}, {3, 1}, {3, 11}, {35, 43}, {2, 2}};
    Rng rng(53);
    std::vector<Matrix> values;
    std::vector<Matrix> slots;
    std::vector<Matrix> expected;
    for (const auto& [r, c] : shapes) {
      const Matrix w = random_matrix(r, c, rng);
      values.push_back(w);
      slots.emplace_back(r, c);
      expected.push_back(w);
    }
    std::vector<Parameter> params;
    for (std::size_t p = 0; p < shapes.size(); ++p) {
      params.push_back({&values[p], &slots[p]});
    }
    const std::size_t skipped = shapes.size() - 1;
    Adam adam(params, h.lr, h.beta1, h.beta2, h.eps);
    ElementwiseAdam reference(h.lr, h.beta1, h.beta2, h.eps);
    std::vector<Matrix> grads(shapes.size());
    for (int step = 0; step < 200; ++step) {
      for (std::size_t p = 0; p < skipped; ++p) {
        Matrix& slot = slots[p];
        for (std::size_t k = 0; k < slot.size(); ++k) {
          slot[k] = adam_test_gradient(k + static_cast<std::size_t>(step), rng);
        }
        grads[p] = slot;
      }
      adam.step();
      reference.step(expected, grads);
    }
    ASSERT_TRUE(same_bits(slots[skipped], Matrix(2, 2)));
    for (std::size_t p = 0; p < values.size(); ++p) {
      EXPECT_TRUE(same_bits(values[p], expected[p]))
          << "parameter " << p << " (lr " << h.lr << ")";
    }
  }
}

TEST(Training, MlpFitsSimpleFunction) {
  // Regression sanity: y = 2 x0 - x1 learned to low MSE.
  Rng rng(11);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {16};
  Mlp mlp(cfg, rng);
  Adam opt(mlp.parameters(), 0.02);

  const Matrix x = random_matrix(64, 2, rng);
  Matrix y(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    y(i, 0) = 2.0 * x(i, 0) - x(i, 1);
  }
  double last = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    last = fused_mse_step(mlp, opt, x, y, 1.0);
  }
  EXPECT_LT(last, 0.01);
}

// -------------------------------------------------------- fused kernels --

// The three heads the kernels cover. A scale of 1.0 means the tape
// oracle builds no scale node, as for the reliability head.
struct FusedHead {
  Activation act;
  double scale;
};
constexpr FusedHead kFusedHeads[] = {{Activation::kSoftplus, 4.0},
                                     {Activation::kSigmoid, 1.0},
                                     {Activation::kIdentity, 1.0}};

// Net shapes for the fused kernels. The product kernels block output
// columns in 8, 4, 2 and 1 lanes (SSE2) or 32, 8, 4, 2 and 1 lanes
// (AVX-512F); the predictor's 12 -> 32 -> 32 -> 1 alone never reaches
// the 2-lane block, so these widths (layer outputs for the forward pass,
// layer inputs for the gradients) take every block and tail of the tier
// the host runs: 40 = 32 + 8, 9 = 8 + 1, 47 = 32 + 8 + 4 + 2 + 1. Odd and
// even widths on both sides of a layer also take the weight transpose's
// 2 x 2 tiles, its odd last row and its odd last column.
struct FusedShape {
  std::size_t input_dim;
  std::vector<std::size_t> hidden;
};
std::vector<FusedShape> fused_shapes() {
  std::vector<FusedShape> shapes = {{6, {32, 32}}};
  for (const std::size_t input_dim : {1u, 3u, 12u}) {
    for (const auto& hidden : std::vector<std::vector<std::size_t>>{
             {2}, {5, 3}, {33}, {40}, {9}, {47}}) {
      shapes.push_back({input_dim, hidden});
    }
  }
  return shapes;
}

std::string describe(const FusedShape& shape) {
  std::string out = std::to_string(shape.input_dim);
  for (const std::size_t h : shape.hidden) {
    out += "->" + std::to_string(h);
  }
  return out + "->1";
}

// A net of the given shape whose hidden unit 0 of each layer is dead:
// zero weights and bias, so its pre-activation is exactly 0.0 on every
// row and every step, which is ReLU's x <= 0 edge.
Mlp make_edge_mlp(Activation head, std::uint64_t seed,
                  const FusedShape& shape) {
  Rng rng(seed);
  MlpConfig cfg;
  cfg.input_dim = shape.input_dim;
  cfg.hidden = shape.hidden;
  cfg.output_activation = head;
  Mlp mlp(cfg, rng);
  auto& layers = mlp.linear_layers();
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    Matrix& w = layers[l].weight;
    for (std::size_t k = 0; k < w.cols(); ++k) {
      w(0, k) = 0.0;
    }
    layers[l].bias(0, 0) = 0.0;
  }
  return mlp;
}

// Inputs with exact-zero rows (with zero biases every first-layer
// pre-activation is then exactly 0.0), a negative-zero entry and a few
// large magnitudes that saturate the heads.
Matrix edge_inputs(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x = random_matrix(rows, cols, rng, 2.0);
  for (std::size_t r = 0; r < rows; r += 3) {
    for (std::size_t c = 0; c < cols; ++c) {
      x(r, c) = 0.0;
    }
  }
  if (rows > 2) {
    // Row-major flat positions, so a one-wide input keeps all three.
    x[cols] = -0.0;
    x[cols + 1] = 40.0;
    x[(rows - 1) * cols + std::min<std::size_t>(2, cols - 1)] = -40.0;
  }
  return x;
}

Matrix head_targets(Activation head, std::size_t rows, Rng& rng) {
  Matrix t(rows, 1);
  for (std::size_t i = 0; i < rows; ++i) {
    t[i] = head == Activation::kSigmoid ? rng.uniform(0.0, 1.0)
                                        : rng.uniform(0.2, 10.0);
  }
  return t;
}

// Copies of the network's matrices as tape leaves, in parameters() order.
std::vector<Variable> tape_leaves(Mlp& mlp) {
  std::vector<Variable> leaves;
  for (const Parameter& p : mlp.parameters()) {
    leaves.emplace_back(*p.value, /*requires_grad=*/true);
  }
  return leaves;
}

// The tape's forward: scale * mlp(x).
Matrix tape_forward(Mlp& mlp, const Matrix& x, double scale) {
  return autograd::mlp_graph(mlp.config(), tape_leaves(mlp), x, scale)
      .value();
}

// Every parameter and gradient of `got` has the bits of `want`'s.
void expect_same_parameters(Mlp& want, Mlp& got) {
  const auto w = want.parameters();
  const auto g = got.parameters();
  ASSERT_EQ(w.size(), g.size());
  for (std::size_t p = 0; p < w.size(); ++p) {
    EXPECT_TRUE(same_bits(*w[p].value, *g[p].value)) << "parameter " << p;
    EXPECT_TRUE(same_bits(*w[p].grad, *g[p].grad)) << "gradient " << p;
  }
}

TEST(FusedStep, MatchesTapeBitForBit) {
  for (const FusedShape& shape : fused_shapes()) {
    for (const FusedHead head : kFusedHeads) {
      for (const std::size_t batch : {1u, 7u, 32u, 64u}) {
        SCOPED_TRACE(describe(shape) + " head " +
                     std::to_string(static_cast<int>(head.act)) + " batch " +
                     std::to_string(batch));
        Mlp tape = make_edge_mlp(head.act, 41, shape);
        Mlp fused = make_edge_mlp(head.act, 41, shape);
        Adam tape_opt(tape.parameters(), 1e-2);
        Adam fused_opt(fused.parameters(), 1e-2);
        Rng data(batch);
        for (int step = 0; step < 60; ++step) {
          const Matrix x = edge_inputs(batch, shape.input_dim, data);
          const Matrix target = head_targets(head.act, batch, data);
          const double tape_loss =
              autograd::tape_mse_step(tape, tape_opt, x, target, head.scale);
          const double fused_loss =
              fused_mse_step(fused, fused_opt, x, target, head.scale);
          ASSERT_TRUE(same_bits(tape_loss, fused_loss))
              << "step " << step << ": " << tape_loss << " vs "
              << fused_loss;
        }
        expect_same_parameters(tape, fused);
        // The dead units stayed dead: their pre-activations were exact
        // zeros on every step.
        EXPECT_EQ(fused.linear_layers()[0].bias(0, 0), 0.0);
      }
    }
  }
}

// The seeded backward against y.backward(dy) on the tape, for both heads
// the trainers run. Two calls on different batches, with different
// dL/dy (the first holds +0.0 and -0.0 entries), accumulate into the
// same gradients; then one Adam step. Every gradient after each call,
// and every weight after the step, has the tape's bits.
TEST(FusedStep, SeededBackwardAccumulatesLikeTheTape) {
  for (const FusedShape& shape : fused_shapes()) {
    for (const FusedHead head : {kFusedHeads[0], kFusedHeads[1]}) {
      SCOPED_TRACE(describe(shape) + " head " +
                   std::to_string(static_cast<int>(head.act)));
      Mlp fused = make_edge_mlp(head.act, 51, shape);
      std::vector<Variable> leaves = tape_leaves(fused);
      Rng data(52);
      for (const std::size_t batch : {7u, 32u}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const Matrix x = edge_inputs(batch, shape.input_dim, data);
        Matrix dy = random_matrix(batch, 1, data, 3.0);
        if (batch == 7) {
          dy[0] = 0.0;
          dy[1] = -0.0;
          dy[4] = 0.0;
        }
        autograd::mlp_graph(fused.config(), leaves, x, head.scale)
            .backward(dy);
        fused_backward(fused, x, dy.flat(), head.scale);
        const auto params = fused.parameters();
        for (std::size_t p = 0; p < params.size(); ++p) {
          EXPECT_TRUE(same_bits(leaves[p].grad(), *params[p].grad))
              << "gradient " << p;
        }
      }
      std::vector<Parameter> tape_params;
      for (const Variable& leaf : leaves) {
        tape_params.push_back({&leaf.node()->value, &leaf.node()->grad});
      }
      Adam tape_opt(tape_params, 1e-2);
      Adam fused_opt(fused.parameters(), 1e-2);
      tape_opt.step();
      fused_opt.step();
      const auto params = fused.parameters();
      for (std::size_t p = 0; p < params.size(); ++p) {
        EXPECT_TRUE(same_bits(leaves[p].value(), *params[p].value))
            << "parameter " << p;
      }
    }
  }
}

TEST(FusedForward, MatchesTape) {
  for (const FusedShape& shape : fused_shapes()) {
    for (const FusedHead head : kFusedHeads) {
      // The gateway's batches (1 to 3 rows), replay's 10 and TSM's 64.
      for (const std::size_t batch : {1u, 2u, 3u, 7u, 10u, 64u}) {
        Mlp mlp = make_edge_mlp(head.act, 43, shape);
        Rng rng(batch + 100);
        for (Linear& lin : mlp.linear_layers()) {
          for (std::size_t j = 1; j < lin.bias.size(); ++j) {
            lin.bias[j] = rng.normal(0.0, 0.5);
          }
        }
        const Matrix x = edge_inputs(batch, shape.input_dim, rng);
        const Matrix tape = tape_forward(mlp, x, head.scale);
        Matrix fused(batch, 1);
        fused_forward(mlp, x, head.scale, fused.flat());
        EXPECT_TRUE(same_bits(tape, fused))
            << describe(shape) << " head " << static_cast<int>(head.act)
            << " batch " << batch;
      }
    }
  }
}

// ReLU's edges against the tape. In both hidden layers unit 0 has a
// zero bias and unit 1 a -0.0 bias, so on a zero input row their
// pre-activations are exactly +0.0 (layer 2's unit 0 also has zero
// weights, so it is +0.0 on every row), and unit 2 has a NaN bias, so its
// pre-activation is NaN on every row. The forward outputs, and the loss,
// every weight and bias gradient and the weights of a few fused steps,
// equal the tape's relu forward and backward bit for bit.
TEST(FusedStep, ReluEdgeValuesMatchTheTape) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const FusedHead head : kFusedHeads) {
    SCOPED_TRACE("head " + std::to_string(static_cast<int>(head.act)));
    auto make_mlp = [&] {
      Rng rng(47);
      MlpConfig cfg;
      cfg.input_dim = 3;
      cfg.hidden = {5, 5};
      cfg.output_activation = head.act;
      Mlp mlp(cfg, rng);
      for (std::size_t l = 0; l < 2; ++l) {
        Matrix& b = mlp.linear_layers()[l].bias;
        b[0] = 0.0;
        b[1] = -0.0;
        b[2] = nan;
      }
      Matrix& w = mlp.linear_layers()[1].weight;
      for (std::size_t k = 0; k < w.cols(); ++k) {
        w(0, k) = 0.0;
      }
      return mlp;
    };
    Mlp tape = make_mlp();
    Mlp fused = make_mlp();
    Rng data(48);
    Matrix x = random_matrix(6, 3, data);
    for (std::size_t c = 0; c < 3; ++c) {
      x(0, c) = 0.0;
      x(3, c) = 0.0;
    }
    const Matrix target = head_targets(head.act, 6, data);

    // The edges are there: the first layer's pre-activations on a zero
    // row are +0.0, +0.0 and NaN.
    const Linear& first = tape.linear_layers()[0];
    const Matrix pre =
        autograd::add_row_broadcast(
            autograd::matmul(Variable(x, false),
                             autograd::transpose(Variable(first.weight))),
            Variable(first.bias))
            .value();
    EXPECT_TRUE(same_bits(pre(0, 0), 0.0));
    EXPECT_TRUE(same_bits(pre(0, 1), 0.0));
    EXPECT_TRUE(std::isnan(pre(0, 2)));

    Matrix out(6, 1);
    fused_forward(fused, x, head.scale, out.flat());
    EXPECT_TRUE(same_bits(tape_forward(tape, x, head.scale), out));

    Adam tape_opt(tape.parameters(), 1e-2);
    Adam fused_opt(fused.parameters(), 1e-2);
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const double tape_loss =
          autograd::tape_mse_step(tape, tape_opt, x, target, head.scale);
      const double fused_loss =
          fused_mse_step(fused, fused_opt, x, target, head.scale);
      EXPECT_TRUE(std::isfinite(fused_loss));
      EXPECT_TRUE(same_bits(tape_loss, fused_loss));
      expect_same_parameters(tape, fused);
    }
  }
}

// The matrix product at each tier against a plain k-order loop, with
// each epilogue. Widths n reach every column strip of both tiers (SSE2:
// 8, 4, 2, 1 lanes; AVX-512F: 32 and 8 lanes, then the SSE2 4, 2 and 1),
// and row counts m every block height (2 rows in the widest strips, 4 in
// SSE2's narrow strips, 8 in AVX-512F's) with and without one-row tail
// blocks (m = 9 is 8 + 1 rows, 17 is 8 + 8 + 1 or 4 x 4 + 1). The A
// strides are fused_mlp's two patterns (row-major A in the forward pass
// and the hidden gradient, transposed A in the weight gradient) and a
// padded row.
void naive_product(std::size_t m, std::size_t n, std::size_t depth,
                   const double* a, std::size_t a_row, std::size_t a_col,
                   const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < depth; ++k) {
        sum += a[i * a_row + k * a_col] * b[k * n + j];
      }
      c[i * n + j] = sum;
    }
  }
}

constexpr std::size_t kTierWidths[] = {1,  2,  3,  5,  8,  9, 12,
                                       16, 31, 32, 33, 40, 47};

// Values of mixed sign and magnitude (so any reordered or fused sum
// rounds differently), with one row of A all -0.0: its sums must start
// from +0.0 and stay +0.0.
std::vector<double> tier_values(std::size_t size, Rng& rng) {
  std::vector<double> v(size);
  for (double& x : v) {
    x = rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 3.0));
  }
  return v;
}

// Every third value becomes one of ReLU's edges in turn: +0.0, -0.0 and
// NaN, so the epilogues meet each in every strip and tail. On the all
// -0.0 row of A the sum is +0.0, so z = sum + bias is exactly +0.0 there
// for a bias of +0.0 or -0.0.
void set_relu_edges(std::vector<double>& v) {
  const double edges[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN()};
  for (std::size_t i = 0; i < v.size(); i += 3) {
    v[i] = edges[(i / 3) % 3];
  }
}

// Runs `check(tier_out, naive_out, what)` for every shape and stride:
// the plain product, the product added into c, the bias + ReLU
// epilogue's pre and post, and the ReLU mask epilogue. The references
// are the tape's expressions: the k-order sum, then `grad += g`, `+ bias`
// and std::max(0.0, z), or relu's backward branch.
template <class Check>
void for_each_tier_case(ProductTier tier, Check check) {
  Rng rng(29);
  for (const std::size_t m : {1u, 2u, 3u, 6u, 8u, 9u, 17u}) {
    for (const std::size_t depth : {1u, 7u, 33u}) {
      for (const std::size_t n : kTierWidths) {
        const std::size_t strides[][2] = {
            {depth, 1}, {1, m}, {depth + 3, 1}};
        for (const auto& stride : strides) {
          const std::size_t a_row = stride[0];
          const std::size_t a_col = stride[1];
          std::vector<double> a =
              tier_values((m - 1) * a_row + (depth - 1) * a_col + 1, rng);
          for (std::size_t k = 0; k < depth; ++k) {
            a[(m - 1) * a_row + k * a_col] = -0.0;
          }
          const std::vector<double> b = tier_values(depth * n, rng);
          std::vector<double> bias = tier_values(n, rng);
          std::vector<double> mask = tier_values(m * n, rng);
          set_relu_edges(bias);
          set_relu_edges(mask);
          const std::string what =
              "m " + std::to_string(m) + " n " + std::to_string(n) +
              " depth " + std::to_string(depth) + " a_row " +
              std::to_string(a_row) + " a_col " + std::to_string(a_col);

          std::vector<double> sum(m * n, 1.0);
          naive_product(m, n, depth, a.data(), a_row, a_col, b.data(),
                        sum.data());
          std::vector<double> got(m * n, 2.0);
          product(tier, m, n, depth, a.data(), a_row, a_col, b.data(),
                  got.data());
          check(got, sum, what + " store");
          std::vector<double> acc = tier_values(m * n, rng);
          std::vector<double> want_acc = acc;
          for (std::size_t i = 0; i < m * n; ++i) {
            want_acc[i] += sum[i];
          }
          product_add(tier, m, n, depth, a.data(), a_row, a_col, b.data(),
                      acc.data());
          check(acc, want_acc, what + " add");

          std::vector<double> want_pre(m * n);
          std::vector<double> want_post(m * n);
          std::vector<double> want_mask(m * n);
          for (std::size_t i = 0; i < m * n; ++i) {
            want_pre[i] = sum[i] + bias[i % n];
            want_post[i] = std::max(0.0, want_pre[i]);
            want_mask[i] = sum[i];
            if (mask[i] <= 0.0) {
              want_mask[i] = 0.0;
            }
          }
          std::vector<double> pre(m * n, 2.0);
          std::vector<double> post(m * n, 2.0);
          product_bias_relu(tier, m, n, depth, a.data(), a_row, a_col,
                            b.data(), bias.data(), pre.data(), post.data());
          check(pre, want_pre, what + " pre");
          check(post, want_post, what + " post");
          std::fill(got.begin(), got.end(), 2.0);
          product_relu_mask(tier, m, n, depth, a.data(), a_row, a_col,
                            b.data(), mask.data(), got.data());
          check(got, want_mask, what + " mask");
        }
      }
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ProductTiers, Sse2MatchesTheKOrderLoopBitForBit) {
  ASSERT_TRUE(product_tier_supported(ProductTier::kSse2));
  for_each_tier_case(ProductTier::kSse2,
                     [](const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
                       EXPECT_TRUE(same_bits(got, want)) << what;
                     });
}

TEST(ProductTiers, Avx512fMatchesTheKOrderLoopAndSse2BitForBit) {
  if (!product_tier_supported(ProductTier::kAvx512f)) {
    GTEST_SKIP() << "this host has no AVX-512F; only the SSE2 tier runs";
  }
  for_each_tier_case(
      ProductTier::kAvx512f,
      [](const std::vector<double>& got, const std::vector<double>& want,
         const std::string& what) { EXPECT_TRUE(same_bits(got, want)) << what; });
  // The two tiers against each other, on the same inputs.
  std::vector<std::vector<double>> sse2;
  for_each_tier_case(ProductTier::kSse2,
                     [&](const std::vector<double>& got,
                         const std::vector<double>&, const std::string&) {
                       sse2.push_back(got);
                     });
  std::size_t i = 0;
  for_each_tier_case(ProductTier::kAvx512f,
                     [&](const std::vector<double>& got,
                         const std::vector<double>&, const std::string& what) {
                       ASSERT_LT(i, sse2.size());
                       EXPECT_TRUE(same_bits(got, sse2[i++])) << what;
                     });
  EXPECT_EQ(i, sse2.size());
}

// ------------------------------------------------------------ serialize --

TEST(Serialize, RoundTripPreservesPredictions) {
  Rng rng(12);
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden = {8, 4};
  Mlp a(cfg, rng);
  Mlp b(cfg, rng);  // different init
  const Matrix x = random_matrix(6, 5, rng);
  ASSERT_FALSE(approx_equal(predict(a, x), predict(b, x), 1e-9));

  std::stringstream buffer;
  save_mlp(buffer, a);
  load_mlp(buffer, b);
  EXPECT_TRUE(approx_equal(predict(a, x), predict(b, x), 1e-15));
}

TEST(Serialize, RejectsWrongMagic) {
  Rng rng(13);
  Mlp m(MlpConfig{}, rng);
  std::stringstream buffer("not-a-checkpoint 1\n");
  EXPECT_THROW(load_mlp(buffer, m), ContractError);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng rng(14);
  MlpConfig small;
  small.hidden = {4};
  MlpConfig big;
  big.hidden = {4, 4};
  Mlp a(small, rng);
  Mlp b(big, rng);
  std::stringstream buffer;
  save_mlp(buffer, a);
  EXPECT_THROW(load_mlp(buffer, b), ContractError);
}

// The writer before std::to_chars: operator<< at precision 17. Kept as
// the oracle for the checkpoint bytes.
std::string iostream_rendering(Mlp& model) {
  std::ostringstream os;
  const auto& layers = model.linear_layers();
  os << "mfcp-mlp 1\n" << layers.size() << '\n';
  for (const Linear& lin : layers) {
    for (const Matrix* m : {&lin.weight, &lin.bias}) {
      os << m->rows() << ' ' << m->cols() << '\n';
      os << std::setprecision(17);
      for (std::size_t i = 0; i < m->size(); ++i) {
        os << (*m)[i] << (i + 1 == m->size() ? '\n' : ' ');
      }
    }
  }
  return os.str();
}

bool same_parameters(Mlp& a, Mlp& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  if (pa.size() != pb.size()) {
    return false;
  }
  for (std::size_t p = 0; p < pa.size(); ++p) {
    if (!same_bits(*pa[p].value, *pb[p].value)) {
      return false;
    }
  }
  return true;
}

TEST(Serialize, BytesMatchTheIostreamWriterAndLoadBitForBit) {
  Rng rng(15);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = {9, 3};
  Mlp trained(cfg, rng);
  Adam opt(trained.parameters(), 1e-2);
  const Matrix x = random_matrix(16, 4, rng);
  const Matrix y = random_matrix(16, 1, rng);
  for (int step = 0; step < 50; ++step) {
    fused_mse_step(trained, opt, x, y, 1.0);
  }
  Mlp edge(cfg, rng);
  const double specials[] = {-0.0,
                             0.0,
                             5e-324,
                             -5e-324,
                             2.2250738585072009e-308,
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             1e22,
                             1.0 / 3.0,
                             -123456789.0};
  Matrix& w = edge.linear_layers()[0].weight;
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    w[i] = specials[i];
  }
  for (Mlp* model : {&trained, &edge}) {
    std::stringstream buffer;
    save_mlp(buffer, *model);
    EXPECT_EQ(buffer.str(), iostream_rendering(*model));
    Mlp restored(cfg, rng);
    ASSERT_FALSE(same_parameters(*model, restored));
    load_mlp(buffer, restored);
    EXPECT_TRUE(same_parameters(*model, restored));
  }
}

TEST(Serialize, RejectsMalformedValuesAndLeavesTheModelUntouched) {
  Rng rng(16);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {3};
  Mlp source(cfg, rng);
  std::stringstream saved;
  save_mlp(saved, source);
  const std::string good = saved.str();
  // The first matrix: header "3 2" on line 3, six values on line 4.
  const std::size_t header = good.find("\n3 2\n") + 1;
  const std::size_t values = header + 4;
  const std::size_t values_end = good.find('\n', values);
  const std::size_t last_space = good.rfind(' ', values_end);
  ASSERT_NE(last_space, std::string::npos);
  const std::string bad[] = {
      // A header far beyond the model: rejected before any allocation.
      good.substr(0, header) + "999999999 999999999" +
          good.substr(header + 3),
      // A value line one value short.
      good.substr(0, last_space) + good.substr(values_end),
      // One extra value.
      good.substr(0, values_end) + " 1" + good.substr(values_end),
      // A non-numeric token.
      good.substr(0, values) + "abc" + good.substr(good.find(' ', values)),
  };
  for (const std::string& text : bad) {
    Mlp target(cfg, rng);
    Mlp before(cfg, rng);
    std::stringstream untouched;
    save_mlp(untouched, target);
    load_mlp(untouched, before);
    std::istringstream is(text);
    EXPECT_THROW(load_mlp(is, target), ContractError) << text;
    EXPECT_TRUE(same_parameters(target, before)) << text;
  }
  // The unmodified text loads.
  Mlp target(cfg, rng);
  std::istringstream is(good);
  load_mlp(is, target);
  EXPECT_TRUE(same_parameters(target, source));
}

// Property sweep over widths: forward shape and head ranges hold.
class MlpShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MlpShapeTest, ForwardShapes) {
  const auto [batch, in, hidden] = GetParam();
  Rng rng(static_cast<std::uint64_t>(batch * 100 + in * 10 + hidden));
  MlpConfig cfg;
  cfg.input_dim = static_cast<std::size_t>(in);
  cfg.hidden = {static_cast<std::size_t>(hidden)};
  Mlp mlp(cfg, rng);
  const Matrix out = predict(mlp, Matrix(batch, in, 0.1));
  EXPECT_EQ(out.rows(), static_cast<std::size_t>(batch));
  EXPECT_EQ(out.cols(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpShapeTest,
                         ::testing::Combine(::testing::Values(1, 3, 9),
                                            ::testing::Values(2, 8),
                                            ::testing::Values(4, 16)));

}  // namespace
}  // namespace mfcp::nn
