#include "nn/fused_mlp.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "autograd/ops.hpp"
#include "support/check.hpp"

namespace mfcp::nn {

namespace {

struct Scratch {
  std::vector<double> wt;    // every layer's W^T, back to back
  std::vector<double> pre;   // every layer's pre-activations (rows x width)
  std::vector<double> post;  // hidden ReLU outputs, then the head's output
  std::vector<double> grad;  // two (rows x widest layer) gradient buffers
};

thread_local Scratch t_scratch;

/// Grows `v` to hold n values. It never shrinks, so reuse allocates
/// nothing.
double* at_least(std::vector<double>& v, std::size_t n) {
  if (v.size() < n) {
    v.resize(n);
  }
  return v.data();
}

/// Two doubles in one SSE2 register, and eight in one AVX-512 register.
/// The widths are fixed typedefs: a dependent vector_size inside a
/// template can silently decay to a plain double. Pair code is baseline
/// x86-64; Oct code runs only inside functions built for avx512f, and no
/// Oct crosses a call (its by-value ABI differs without that target).
typedef double Pair __attribute__((vector_size(16)));
typedef double Oct __attribute__((vector_size(64)));
static_assert(sizeof(Pair) == 2 * sizeof(double), "Pair must hold two lanes");
static_assert(sizeof(Oct) == 8 * sizeof(double), "Oct must hold eight lanes");

/// One block of `product`: Rows x Lanes entries of c summed in registers,
/// sizeof(V) / 8 entries to a vector, each entry in its own lane. Every
/// lane starts at +0.0 and takes one multiply and one add per k, in k
/// order. Always inlined, so a block compiles for its caller's target.
template <class V, std::size_t Rows, std::size_t Lanes>
[[gnu::always_inline]] inline void product_block(
    std::size_t n, std::size_t depth, const double* a, std::size_t a_row,
    std::size_t a_col, const double* b, double* c) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  static_assert(Lanes % kWidth == 0,
                "a block is whole vectors; odd tails use product_column");
  constexpr std::size_t kVecs = Lanes / kWidth;
  // One memcpy per vector: one memcpy for the whole array kept b's
  // vectors in stack memory, and the products ran 25-40% slower.
  V acc[Rows][kVecs] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    V bv[kVecs];
    for (std::size_t p = 0; p < kVecs; ++p) {
      std::memcpy(&bv[p], b + k * n + p * kWidth, sizeof(V));
    }
    for (std::size_t r = 0; r < Rows; ++r) {
      const double ark = a[r * a_row + k * a_col];
      for (std::size_t p = 0; p < kVecs; ++p) {
        acc[r][p] += ark * bv[p];
      }
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t p = 0; p < kVecs; ++p) {
      std::memcpy(c + r * n + p * kWidth, &acc[r][p], sizeof(V));
    }
  }
}

/// The last column of an odd-width block, one scalar sum per row.
template <std::size_t Rows>
[[gnu::always_inline]] inline void product_column(
    std::size_t n, std::size_t depth, const double* a, std::size_t a_row,
    std::size_t a_col, const double* b, double* c) {
  double acc[Rows] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    const double bk = b[k * n];
    for (std::size_t r = 0; r < Rows; ++r) {
      acc[r] += a[r * a_row + k * a_col] * bk;
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    c[r * n] = acc[r];
  }
}

/// Rows [0, Rows) of `product` in column blocks of four V vectors (8
/// lanes of Pair, 32 of Oct), then single Oct vectors, then the Pair
/// blocks of 4 and 2 and the scalar column.
template <class V, std::size_t Rows>
[[gnu::always_inline]] inline void product_rows(
    std::size_t n, std::size_t depth, const double* a, std::size_t a_row,
    std::size_t a_col, const double* b, double* c) {
  constexpr std::size_t kWide = 4 * sizeof(V) / sizeof(double);
  std::size_t j = 0;
  for (; j + kWide <= n; j += kWide) {
    product_block<V, Rows, kWide>(n, depth, a, a_row, a_col, b + j, c + j);
  }
  if constexpr (sizeof(V) == sizeof(Oct)) {
    for (; j + 8 <= n; j += 8) {
      product_block<V, Rows, 8>(n, depth, a, a_row, a_col, b + j, c + j);
    }
  }
  if (j + 4 <= n) {
    product_block<Pair, Rows, 4>(n, depth, a, a_row, a_col, b + j, c + j);
    j += 4;
  }
  if (j + 2 <= n) {
    product_block<Pair, Rows, 2>(n, depth, a, a_row, a_col, b + j, c + j);
    j += 2;
  }
  if (j < n) {
    product_column<Rows>(n, depth, a, a_row, a_col, b + j, c + j);
  }
}

/// `product` in blocks of two rows that stay in registers for the whole
/// sum; the entries are independent lanes, so blocking reorders no sum.
template <class V>
[[gnu::always_inline]] inline void product_tier(
    std::size_t m, std::size_t n, std::size_t depth, const double* a,
    std::size_t a_row, std::size_t a_col, const double* b, double* c) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    product_rows<V, 2>(n, depth, a + i * a_row, a_row, a_col, b, c + i * n);
  }
  if (i < m) {
    product_rows<V, 1>(n, depth, a + i * a_row, a_row, a_col, b, c + i * n);
  }
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void product_avx512f(
    std::size_t m, std::size_t n, std::size_t depth, const double* a,
    std::size_t a_row, std::size_t a_col, const double* b, double* c) {
  product_tier<Oct>(m, n, depth, a, a_row, a_col, b, c);
}
#endif

/// The widest tier this host runs, decided once. __builtin_cpu_supports
/// needs __builtin_cpu_init first when it may run before main; its
/// avx512f bit also requires the OS to save the zmm state.
ProductTier widest_tier() noexcept {
  static const ProductTier tier = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
      return ProductTier::kAvx512f;
    }
#endif
    return ProductTier::kSse2;
  }();
  return tier;
}

/// The head's output nonlinearity over n values, as the tape's ops
/// compute it, one loop per activation.
void head_activation(Activation act, const double* z, double* out,
                     std::size_t n) {
  switch (act) {
    case Activation::kSoftplus:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = autograd::softplus_scalar(z[i]);
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = autograd::sigmoid_scalar(z[i]);
      }
      break;
    default:
      std::copy(z, z + n, out);
      break;
  }
}

/// dst (cols x rows) = src^T, for a row-major src (rows x cols), in
/// 2 x 2 tiles: two Pair loads from two rows of src, two unpacks, two
/// Pair stores to two rows of dst. An odd last row or column goes one
/// value at a time. It only copies values, so it changes no bit.
void transpose(const double* src, std::size_t rows, std::size_t cols,
               double* dst) {
  typedef long long PairMask __attribute__((vector_size(16)));
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* s0 = src + r * cols;
    const double* s1 = s0 + cols;
    std::size_t c = 0;
    for (; c + 2 <= cols; c += 2) {
      Pair x;
      Pair y;
      std::memcpy(&x, s0 + c, sizeof(Pair));
      std::memcpy(&y, s1 + c, sizeof(Pair));
      const Pair lo = __builtin_shuffle(x, y, PairMask{0, 2});
      const Pair hi = __builtin_shuffle(x, y, PairMask{1, 3});
      std::memcpy(dst + c * rows + r, &lo, sizeof(Pair));
      std::memcpy(dst + (c + 1) * rows + r, &hi, sizeof(Pair));
    }
    if (c < cols) {
      dst[c * rows + r] = s0[c];
      dst[c * rows + r + 1] = s1[c];
    }
  }
  if (r < rows) {
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = src[r * cols + c];
    }
  }
}

/// Runs the forward pass, keeping every layer's activations in `s`.
/// Returns the head's outputs (x.rows() x output_dim), before any scale.
const double* forward(Mlp& mlp, const Matrix& x, Scratch& s) {
  const MlpConfig& config = mlp.config();
  MFCP_CHECK(fused_supported(config),
             "fused MLP kernels need ReLU hidden layers and a softplus, "
             "sigmoid or identity head");
  MFCP_CHECK(x.cols() == config.input_dim, "MLP input width mismatch");
  const auto& layers = mlp.linear_layers();
  const std::size_t rows = x.rows();
  std::size_t wt_size = 0;
  std::size_t act_size = 0;
  for (const Linear* lin : layers) {
    wt_size += lin->in_features() * lin->out_features();
    act_size += rows * lin->out_features();
  }
  double* wt = at_least(s.wt, wt_size);
  double* pre = at_least(s.pre, act_size);
  double* post = at_least(s.post, act_size);
  const double* in = x.data();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Linear& lin = *layers[l];
    const std::size_t n_in = lin.in_features();
    const std::size_t n_out = lin.out_features();
    // matmul(in, W^T).
    transpose(lin.weight().value().data(), n_out, n_in, wt);
    product(widest_tier(), rows, n_out, n_in, in, n_in, 1, wt, pre);
    // add_row_broadcast's bias; a hidden layer applies ReLU in the same
    // pass, as relu computes it.
    const double* bias = lin.bias().value().data();
    const std::size_t n = rows * n_out;
    if (l + 1 < layers.size()) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = 0; j < n_out; ++j) {
          const double z = pre[r * n_out + j] + bias[j];
          pre[r * n_out + j] = z;
          post[r * n_out + j] = std::max(0.0, z);
        }
      }
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = 0; j < n_out; ++j) {
          pre[r * n_out + j] += bias[j];
        }
      }
      head_activation(config.output_activation, pre, post, n);
    }
    in = post;
    wt += n_in * n_out;
    pre += n;
    post += n;
  }
  return post - rows * config.output_dim;
}

}  // namespace

bool fused_supported(const MlpConfig& config) noexcept {
  const Activation head = config.output_activation;
  return config.hidden_activation == Activation::kRelu &&
         (head == Activation::kSoftplus || head == Activation::kSigmoid ||
          head == Activation::kIdentity);
}

bool product_tier_supported(ProductTier tier) noexcept {
  return tier == ProductTier::kSse2 || widest_tier() == tier;
}

void product(ProductTier tier, std::size_t m, std::size_t n,
             std::size_t depth, const double* a, std::size_t a_row,
             std::size_t a_col, const double* b, double* c) {
  MFCP_CHECK(product_tier_supported(tier),
             "product: this host does not support the requested tier");
#if defined(__x86_64__)
  if (tier == ProductTier::kAvx512f) {
    product_avx512f(m, n, depth, a, a_row, a_col, b, c);
    return;
  }
#endif
  product_tier<Pair>(m, n, depth, a, a_row, a_col, b, c);
}

void fused_forward(Mlp& mlp, const Matrix& x, double scale,
                   std::span<double> out) {
  MFCP_CHECK(out.size() == x.rows() * mlp.config().output_dim,
             "fused_forward: output size mismatch");
  const double* y = forward(mlp, x, t_scratch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = y[i] * scale;
  }
}

double fused_mse_step(Mlp& mlp, Optimizer& opt, const Matrix& x,
                      const Matrix& target, double scale) {
  Scratch& s = t_scratch;
  const std::size_t rows = x.rows();
  const std::size_t n = target.size();
  MFCP_CHECK(target.rows() == rows && target.cols() == mlp.config().output_dim,
             "mse: shape mismatch");
  const double* head_out = forward(mlp, x, s);

  // The prediction is head_out * scale, as the scale node computes it.
  // mse_loss: squares summed in element order, then one division.
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = head_out[i] * scale - target[i];
    loss += d * d;
  }
  loss /= static_cast<double>(n);

  const auto& layers = mlp.linear_layers();
  std::size_t widest = 0;
  std::size_t act_end = 0;
  for (const Linear* lin : layers) {
    widest = std::max(widest, lin->out_features());
    act_end += rows * lin->out_features();
  }
  double* g = at_least(s.grad, 2 * rows * widest);
  double* g_prev = g + rows * widest;

  // The head's element-wise chain: MSE, scale, head activation. Each
  // `0.0 +` is the tape's accumulate into a cleared grad slot, which maps
  // -0.0 to +0.0. Multiplying by a scale of 1.0 is exact, so a head
  // without a scale node gives the same bits. Every later gradient is a
  // sum that starts from +0.0, which can never be -0.0, so the tape's
  // accumulate is the identity there and is left out.
  const double c = 2.0 / static_cast<double>(n);
  const double* head_pre = s.pre.data() + act_end - n;
  for (std::size_t i = 0; i < n; ++i) {
    double gi = 0.0 + c * (head_out[i] * scale - target[i]);
    gi = 0.0 + gi * scale;
    switch (mlp.config().output_activation) {
      case Activation::kSoftplus:
        gi = 0.0 + gi * autograd::sigmoid_scalar(head_pre[i]);
        break;
      case Activation::kSigmoid:
        gi = 0.0 + gi * (head_out[i] * (1.0 - head_out[i]));
        break;
      default:
        break;
    }
    g[i] = gi;
  }

  // Walk the layers back. g holds dL/d(pre-activation) of layer l.
  std::size_t act_begin = act_end - n;
  for (std::size_t l = layers.size(); l-- > 0;) {
    Linear& lin = *layers[l];
    const std::size_t n_in = lin.in_features();
    const std::size_t n_out = lin.out_features();
    const double* in =
        l == 0 ? x.data() : s.post.data() + act_begin - rows * n_in;

    // Bias: add_row_broadcast sums the rows in order from +0.0.
    double* gb = lin.bias().grad_slot().data();
    std::fill(gb, gb + n_out, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < n_out; ++j) {
        gb[j] += g[r * n_out + j];
      }
    }

    // Weight: matmul_tn(in, g) transposed, each entry summed over the
    // batch in row order from +0.0.
    product(widest_tier(), n_out, n_in, rows, g, 1, n_out, in,
            lin.weight().grad_slot().data());

    // The input needs no gradient (the tape skips it as well).
    if (l == 0) {
      break;
    }

    // Hidden input: matmul_nt(g, W^T), each entry summed over this
    // layer's outputs from +0.0, then ReLU's mask where the previous
    // pre-activation is <= 0. The mask is a select, not a branch: the
    // signs depend on the data, and a branch mispredicted on about half
    // of them. It stores +0.0 exactly where the tape's branch does and
    // keeps g elsewhere, NaN included (NaN <= 0 is false).
    product(widest_tier(), rows, n_in, n_out, g, n_out, 1,
            lin.weight().value().data(), g_prev);
    const double* prev_pre = s.pre.data() + act_begin - rows * n_in;
    for (std::size_t i = 0; i < rows * n_in; ++i) {
      g_prev[i] = prev_pre[i] <= 0.0 ? 0.0 : g_prev[i];
    }
    std::swap(g, g_prev);
    act_begin -= rows * n_in;
  }

  opt.step();
  return loss;
}

}  // namespace mfcp::nn
