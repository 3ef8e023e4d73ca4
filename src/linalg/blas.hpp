// Level-2/3 dense kernels: matrix-matrix and matrix-vector products.
//
// matmul uses a cache-blocked i-k-j loop order (row-major friendly: the
// innermost loop streams both B and C rows). A threaded variant splits the
// output rows across a pool for the larger products that appear in
// full-Jacobian KKT solves and batched predictor evaluation.
#pragma once

#include "linalg/matrix.hpp"
#include "parallel/thread_pool.hpp"

namespace mfcp {

/// C = A * B. Requires a.cols() == b.rows().
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing the transpose.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing the transpose.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Threaded C = A * B, splitting rows of A across the pool. Bitwise
/// identical to matmul() for any thread count (per-row accumulation order
/// is unchanged).
Matrix matmul_parallel(ThreadPool& pool, const Matrix& a, const Matrix& b);

/// y = A * x for x an n x 1 vector; returns an m x 1 vector.
Matrix matvec(const Matrix& a, const Matrix& x);

}  // namespace mfcp
