#include "nn/fused_mlp.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace mfcp::nn {

namespace {

struct Scratch {
  std::vector<double> wt;    // every layer's W^T, back to back
  std::vector<double> pre;   // every layer's pre-activations (rows x width)
  std::vector<double> post;  // hidden ReLU outputs, then the head's output
  std::vector<double> grad;  // two (rows x widest layer) gradient buffers
  std::vector<double> dy;    // fused_mse_step's dL/dy
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

/// Two doubles in one SSE2 register, four in one AVX register and eight
/// in one AVX-512 register. The widths are fixed typedefs: a dependent
/// vector_size inside a template can silently decay to a plain double.
/// Pair code is baseline x86-64; Quad and Oct code runs only inside
/// functions built for avx512f, and no Quad or Oct crosses a call (their
/// by-value ABI differs without that target).
typedef double Pair __attribute__((vector_size(16)));
typedef double Quad __attribute__((vector_size(32)));
typedef double Oct __attribute__((vector_size(64)));
static_assert(sizeof(Pair) == 2 * sizeof(double), "Pair must hold two lanes");
static_assert(sizeof(Quad) == 4 * sizeof(double), "Quad must hold four lanes");
static_assert(sizeof(Oct) == 8 * sizeof(double), "Oct must hold eight lanes");

// The epilogues: what a block does with each finished vector of sums (a
// double in the scalar column). `e` is the vector's first entry in c
// (i * n + j) and `j` its column. Each one is always inlined, so it
// compiles for its caller's target and no Quad or Oct crosses a call.

/// c = sum.
struct StoreSum {
  double* c;
  template <class V>
  [[gnu::always_inline]] void operator()(std::size_t e, std::size_t,
                                         const V& sum) const {
    std::memcpy(c + e, &sum, sizeof(V));
  }
};

/// c = c + sum: a gradient added into its slot, as the tape's
/// accumulate adds it.
struct AddSum {
  double* c;
  template <class V>
  [[gnu::always_inline]] void operator()(std::size_t e, std::size_t,
                                         const V& sum) const {
    V old;
    std::memcpy(&old, c + e, sizeof(V));
    const V r = old + sum;
    std::memcpy(c + e, &r, sizeof(V));
  }
};

/// A hidden layer's forward: z = sum + bias[j] (add_row_broadcast), then
/// pre = z and post = (0.0 < z) ? z : 0.0, which is relu's
/// std::max(0.0, z): +0.0 for z = +-0.0 or NaN.
struct BiasRelu {
  const double* bias;
  double* pre;
  double* post;
  template <class V>
  [[gnu::always_inline]] void operator()(std::size_t e, std::size_t j,
                                         const V& sum) const {
    V b;
    std::memcpy(&b, bias + j, sizeof(V));
    const V z = sum + b;
    const V zero{};
    const V r = zero < z ? z : zero;
    std::memcpy(pre + e, &z, sizeof(V));
    std::memcpy(post + e, &r, sizeof(V));
  }
};

/// A hidden gradient's ReLU mask: c = mask <= 0.0 ? 0.0 : sum, where mask
/// is the previous layer's pre-activation. It stores +0.0 exactly where
/// relu's backward branch `if (x <= 0.0) g = 0.0` does, +-0.0 included,
/// and keeps the sum for a NaN (NaN <= 0.0 is false).
struct ReluMask {
  const double* mask;
  double* c;
  template <class V>
  [[gnu::always_inline]] void operator()(std::size_t e, std::size_t,
                                         const V& sum) const {
    V m;
    std::memcpy(&m, mask + e, sizeof(V));
    const V zero{};
    const V r = m <= zero ? zero : sum;
    std::memcpy(c + e, &r, sizeof(V));
  }
};

/// One block of `product`: Rows x Lanes entries of c summed in registers,
/// sizeof(V) / 8 entries to a vector (V = double for the scalar column of
/// an odd width), each entry in its own lane. Every
/// lane starts at +0.0 and takes one multiply and one add per k, in k
/// order; `epi` then stores each vector. `e` is the block's first entry
/// in c and `j` its first column. Always inlined, so a block compiles for
/// its caller's target.
template <class V, std::size_t Rows, std::size_t Lanes, class Epi>
[[gnu::always_inline]] inline void product_block(
    std::size_t n, std::size_t depth, const double* a, std::size_t a_row,
    std::size_t a_col, const double* b, std::size_t e, std::size_t j,
    const Epi& epi) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  static_assert(Lanes % kWidth == 0, "a block is whole vectors");
  constexpr std::size_t kVecs = Lanes / kWidth;
  // One memcpy per vector: one memcpy for the whole array kept b's
  // vectors in stack memory, and the products ran 25-40% slower.
  V acc[Rows][kVecs] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    V bv[kVecs];
    for (std::size_t p = 0; p < kVecs; ++p) {
      std::memcpy(&bv[p], b + k * n + j + p * kWidth, sizeof(V));
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
      epi(e + r * n + p * kWidth, j + p * kWidth, acc[r][p]);
    }
  }
}

/// Columns [j, j + Lanes) of rows [i, m) of `product`, in blocks of Rows
/// rows, then one-row blocks for the last m mod Rows rows.
template <class V, std::size_t Lanes, std::size_t Rows, class Epi>
[[gnu::always_inline]] inline void product_strip(
    std::size_t m, std::size_t n, std::size_t depth, const double* a,
    std::size_t a_row, std::size_t a_col, const double* b, std::size_t i,
    std::size_t j, const Epi& epi) {
  for (; i + Rows <= m; i += Rows) {
    product_block<V, Rows, Lanes>(n, depth, a + i * a_row, a_row, a_col, b,
                                  i * n + j, j, epi);
  }
  if constexpr (Rows > 1) {
    product_strip<V, Lanes, 1>(m, n, depth, a, a_row, a_col, b, i, j, epi);
  }
}

/// A tier's column strips and the rows to a block in each, chosen so a
/// block's sums, b's vectors and the broadcast stay in registers: 32 zmm
/// for Oct, but only 16 xmm or ymm (without AVX-512VL no 128- or 256-bit
/// instruction reaches the upper 16).
///   - SSE2: 8 lanes (four Pairs) by 2 rows, then 4 and 2 Pair lanes and
///     the scalar column by 4 rows.
///   - AVX-512F: 32 lanes (four Octs) by 2 rows, then 8 lanes (one Oct),
///     4 (one Quad), 2 (one Pair) and the scalar column by 8 rows.
/// A narrow strip's block thus sums the independent lanes of 4 or 8 rows
/// at once, and its adds do not wait on each other; with 2 rows, the
/// first layer's weight gradient (32 x 12) and the head's forward (64 x
/// 1) were bound by add latency.
struct Sse2Strips {
  using Wide = Pair;
  using Four = Pair;
  static constexpr std::size_t kWideRows = 2;
  static constexpr std::size_t kFourRows = 4;
  static constexpr std::size_t kTwoRows = 4;
  static constexpr std::size_t kOneRows = 4;
};
struct Avx512fStrips {
  using Wide = Oct;
  using Four = Quad;
  static constexpr std::size_t kWideRows = 2;
  static constexpr std::size_t kEightRows = 8;
  static constexpr std::size_t kFourRows = 8;
  static constexpr std::size_t kTwoRows = 8;
  static constexpr std::size_t kOneRows = 8;
};

/// `product` in the column strips of tier T, each in blocks of rows that
/// stay in registers for the whole sum. The rows and columns of c are
/// independent lanes, so blocking reorders no sum.
template <class T, class Epi>
[[gnu::always_inline]] inline void product_tier(
    std::size_t m, std::size_t n, std::size_t depth, const double* a,
    std::size_t a_row, std::size_t a_col, const double* b, const Epi& epi) {
  using Wide = typename T::Wide;
  constexpr std::size_t kWide = 4 * sizeof(Wide) / sizeof(double);
  std::size_t j = 0;
  for (; j + kWide <= n; j += kWide) {
    product_strip<Wide, kWide, T::kWideRows>(m, n, depth, a, a_row, a_col, b,
                                             0, j, epi);
  }
  if constexpr (sizeof(Wide) == sizeof(Oct)) {
    for (; j + 8 <= n; j += 8) {
      product_strip<Oct, 8, T::kEightRows>(m, n, depth, a, a_row, a_col, b, 0,
                                           j, epi);
    }
  }
  if (j + 4 <= n) {
    product_strip<typename T::Four, 4, T::kFourRows>(m, n, depth, a, a_row,
                                                     a_col, b, 0, j, epi);
    j += 4;
  }
  if (j + 2 <= n) {
    product_strip<Pair, 2, T::kTwoRows>(m, n, depth, a, a_row, a_col, b, 0, j,
                                        epi);
    j += 2;
  }
  if (j < n) {
    product_strip<double, 1, T::kOneRows>(m, n, depth, a, a_row, a_col, b, 0,
                                          j, epi);
  }
}

/// One function per tier and epilogue. `noclone` keeps GCC from copying
/// a whole tier for each call site's constant arguments.
template <class Epi>
[[gnu::noclone]] void product_sse2(std::size_t m, std::size_t n,
                                   std::size_t depth, const double* a,
                                   std::size_t a_row, std::size_t a_col,
                                   const double* b, const Epi& epi) {
  product_tier<Sse2Strips>(m, n, depth, a, a_row, a_col, b, epi);
}

#if defined(__x86_64__)
template <class Epi>
[[gnu::noclone]] __attribute__((target("avx512f"))) void product_avx512f(
    std::size_t m, std::size_t n, std::size_t depth, const double* a,
    std::size_t a_row, std::size_t a_col, const double* b, const Epi& epi) {
  product_tier<Avx512fStrips>(m, n, depth, a, a_row, a_col, b, epi);
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
        out[i] = softplus_scalar(z[i]);
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = sigmoid_scalar(z[i]);
      }
      break;
    case Activation::kIdentity:
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

/// `product` at `tier` with the epilogue `epi`.
template <class Epi>
void product_with(ProductTier tier, std::size_t m, std::size_t n,
                  std::size_t depth, const double* a, std::size_t a_row,
                  std::size_t a_col, const double* b, const Epi& epi) {
  MFCP_CHECK(product_tier_supported(tier),
             "product: this host does not support the requested tier");
#if defined(__x86_64__)
  if (tier == ProductTier::kAvx512f) {
    product_avx512f(m, n, depth, a, a_row, a_col, b, epi);
    return;
  }
#endif
  product_sse2(m, n, depth, a, a_row, a_col, b, epi);
}

/// Runs the forward pass, keeping every layer's activations in `s`.
/// Returns the head's outputs (x.rows() x output_dim), before any scale.
const double* forward(const Mlp& mlp, const Matrix& x, Scratch& s) {
  const MlpConfig& config = mlp.config();
  MFCP_CHECK(x.cols() == config.input_dim, "MLP input width mismatch");
  const auto& layers = mlp.linear_layers();
  const std::size_t rows = x.rows();
  std::size_t wt_size = 0;
  std::size_t act_size = 0;
  for (const Linear& lin : layers) {
    wt_size += lin.in_features() * lin.out_features();
    act_size += rows * lin.out_features();
  }
  double* wt = at_least(s.wt, wt_size);
  double* pre = at_least(s.pre, act_size);
  double* post = at_least(s.post, act_size);
  const double* in = x.data();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Linear& lin = layers[l];
    const std::size_t n_in = lin.in_features();
    const std::size_t n_out = lin.out_features();
    // matmul(in, W^T), then add_row_broadcast's bias. A hidden layer
    // adds it and applies ReLU in the product's epilogue.
    transpose(lin.weight.data(), n_out, n_in, wt);
    const double* bias = lin.bias.data();
    const std::size_t n = rows * n_out;
    if (l + 1 < layers.size()) {
      product_with(widest_tier(), rows, n_out, n_in, in, n_in, 1, wt,
                   BiasRelu{bias, pre, post});
    } else {
      product(widest_tier(), rows, n_out, n_in, in, n_in, 1, wt, pre);
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

/// The backward pass of y = scale * mlp(x) for dL/dy = dy, over the
/// activations `s` holds from forward(mlp, x). Every parameter's gradient
/// is added into its slot.
void backward(Mlp& mlp, const Matrix& x, const double* dy, double scale,
              Scratch& s) {
  auto& layers = mlp.linear_layers();
  const std::size_t rows = x.rows();
  const std::size_t n = rows * mlp.config().output_dim;
  std::size_t widest = 0;
  std::size_t act_end = 0;
  for (const Linear& lin : layers) {
    widest = std::max(widest, lin.out_features());
    act_end += rows * lin.out_features();
  }
  double* g = at_least(s.grad, 2 * rows * widest);
  double* g_prev = g + rows * widest;

  // The head's element-wise chain, as the tape runs it: dy lands in y's
  // cleared grad slot, then the scale node and the head activation each
  // pass it on. Each `0.0 +` is the tape's accumulate into a cleared
  // slot, which maps -0.0 to +0.0. Multiplying by a scale of 1.0 is
  // exact, so a head without a scale node gives the same bits. Every
  // later gradient is a sum that starts from +0.0, which can never be
  // -0.0, so the tape's accumulate is the identity there and is left out.
  const Activation head = mlp.config().output_activation;
  const double* head_pre = s.pre.data() + act_end - n;
  const double* head_out = s.post.data() + act_end - n;
  for (std::size_t i = 0; i < n; ++i) {
    double gi = 0.0 + dy[i];
    gi = 0.0 + gi * scale;
    if (head == Activation::kSoftplus) {
      gi = 0.0 + gi * sigmoid_scalar(head_pre[i]);
    } else if (head == Activation::kSigmoid) {
      gi = 0.0 + gi * (head_out[i] * (1.0 - head_out[i]));
    }
    g[i] = gi;
  }

  // Walk the layers back. g holds dL/d(pre-activation) of layer l.
  std::size_t act_begin = act_end - n;
  for (std::size_t l = layers.size(); l-- > 0;) {
    Linear& lin = layers[l];
    const std::size_t n_in = lin.in_features();
    const std::size_t n_out = lin.out_features();
    const double* in =
        l == 0 ? x.data() : s.post.data() + act_begin - rows * n_in;

    // Bias: add_row_broadcast sums the rows of g in order from +0.0.
    // That is the product of a row of ones (strides 0) and g: 1.0 * g is
    // exact, so every entry takes the same adds in the same order.
    static constexpr double kOne = 1.0;
    product_add(widest_tier(), 1, n_out, rows, &kOne, 0, 0, g,
                lin.bias_grad.data());

    // Weight: matmul_tn(in, g) transposed, each entry summed over the
    // batch in row order from +0.0.
    product_add(widest_tier(), n_out, n_in, rows, g, 1, n_out, in,
                lin.weight_grad.data());

    // The input needs no gradient (the tape skips it as well).
    if (l == 0) {
      break;
    }

    // Hidden input: matmul_nt(g, W^T), each entry summed over this
    // layer's outputs from +0.0, then, in the product's epilogue, ReLU's
    // mask where the previous pre-activation is <= 0. The mask is a
    // select, not a branch: the signs depend on the data, and a branch
    // mispredicted on about half of them.
    const double* prev_pre = s.pre.data() + act_begin - rows * n_in;
    product_with(widest_tier(), rows, n_in, n_out, g, n_out, 1,
                 lin.weight.data(), ReluMask{prev_pre, g_prev});
    std::swap(g, g_prev);
    act_begin -= rows * n_in;
  }
}

}  // namespace

bool product_tier_supported(ProductTier tier) noexcept {
  return tier == ProductTier::kSse2 || widest_tier() == tier;
}

void product(ProductTier tier, std::size_t m, std::size_t n,
             std::size_t depth, const double* a, std::size_t a_row,
             std::size_t a_col, const double* b, double* c) {
  product_with(tier, m, n, depth, a, a_row, a_col, b, StoreSum{c});
}

void product_add(ProductTier tier, std::size_t m, std::size_t n,
                 std::size_t depth, const double* a, std::size_t a_row,
                 std::size_t a_col, const double* b, double* c) {
  product_with(tier, m, n, depth, a, a_row, a_col, b, AddSum{c});
}

void product_bias_relu(ProductTier tier, std::size_t m, std::size_t n,
                       std::size_t depth, const double* a, std::size_t a_row,
                       std::size_t a_col, const double* b, const double* bias,
                       double* pre, double* post) {
  product_with(tier, m, n, depth, a, a_row, a_col, b,
               BiasRelu{bias, pre, post});
}

void product_relu_mask(ProductTier tier, std::size_t m, std::size_t n,
                       std::size_t depth, const double* a, std::size_t a_row,
                       std::size_t a_col, const double* b, const double* mask,
                       double* c) {
  product_with(tier, m, n, depth, a, a_row, a_col, b, ReluMask{mask, c});
}

void fused_forward(const Mlp& mlp, const Matrix& x, double scale,
                   std::span<double> out) {
  MFCP_CHECK(out.size() == x.rows() * mlp.config().output_dim,
             "fused_forward: output size mismatch");
  const double* y = forward(mlp, x, t_scratch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = y[i] * scale;
  }
}

void fused_backward(Mlp& mlp, const Matrix& x, std::span<const double> dy,
                    double scale) {
  MFCP_CHECK(dy.size() == x.rows() * mlp.config().output_dim,
             "fused_backward: output gradient size mismatch");
  forward(mlp, x, t_scratch);
  backward(mlp, x, dy.data(), scale, t_scratch);
}

double fused_mse_step(Mlp& mlp, Adam& opt, const Matrix& x,
                      const Matrix& target, double scale) {
  Scratch& s = t_scratch;
  const std::size_t n = target.size();
  MFCP_CHECK(target.rows() == x.rows() &&
                 target.cols() == mlp.config().output_dim,
             "mse: shape mismatch");
  const double* y = forward(mlp, x, s);

  // The prediction is y * scale, as the scale node computes it, and d
  // its error. mse_loss sums the squares in element order, then divides
  // once; its gradient is 2/n * d.
  const double c = 2.0 / static_cast<double>(n);
  double* dy = at_least(s.dy, n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = y[i] * scale - target[i];
    loss += d * d;
    dy[i] = c * d;
  }
  loss /= static_cast<double>(n);

  mlp.zero_grad();
  backward(mlp, x, dy, scale, s);
  opt.step();
  return loss;
}

}  // namespace mfcp::nn
