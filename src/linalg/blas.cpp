#include "linalg/blas.hpp"

#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace mfcp {

namespace {

// Rows-of-A block size: keeps one A block plus the touched B rows in L1/L2.
constexpr std::size_t kBlock = 64;

// Multiplies rows [r0, r1) of A into rows [r0, r1) of C.
void matmul_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
                 std::size_t r1) {
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    double* crow = c.data() + i * n;
    const double* arow = a.data() + i * inner;
    for (std::size_t kk = 0; kk < inner; kk += kBlock) {
      const std::size_t kend = std::min(inner, kk + kBlock);
      for (std::size_t k = kk; k < kend; ++k) {
        const double aik = arow[k];
        const double* brow = b.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  matmul_rows(a, b, c, 0, a.rows());
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.rows() == b.rows(), "matmul_tn: dimension mismatch");
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  const std::size_t inner = a.rows();
  Matrix c(m, n, 0.0);
  // (A^T B)_{ij} = sum_k A_{ki} B_{kj}: stream rows of A and B together.
  for (std::size_t k = 0; k < inner; ++k) {
    const double* arow = a.data() + k * m;
    const double* brow = b.data() + k * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = arow[i];
      double* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aki * brow[j];
      }
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.cols() == b.cols(), "matmul_nt: dimension mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t inner = a.cols();
  Matrix c(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.data() + i * inner;
    double* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b.data() + j * inner;
      double acc = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        acc += arow[k] * brow[k];
      }
      crow[j] = acc;
    }
  }
  return c;
}

Matrix matmul_parallel(ThreadPool& pool, const Matrix& a, const Matrix& b) {
  MFCP_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  const auto blocks = partition_range(a.rows(), pool.size());
  if (blocks.size() <= 1) {
    matmul_rows(a, b, c, 0, a.rows());
    return c;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(blocks.size());
  for (const auto& [begin, end] : blocks) {
    futures.push_back(pool.submit([&, begin = begin, end = end] {
      matmul_rows(a, b, c, begin, end);
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  return c;
}

Matrix matvec(const Matrix& a, const Matrix& x) {
  MFCP_CHECK(x.size() == a.cols(), "matvec: dimension mismatch");
  Matrix y(a.rows(), 1, 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    double acc = 0.0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      acc += arow[k] * x[k];
    }
    y[i] = acc;
  }
  return y;
}

}  // namespace mfcp
