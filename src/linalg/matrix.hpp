// Dense row-major matrix of doubles — the numeric workhorse for the
// autograd engine, the matching solvers, and the KKT sensitivity system.
//
// Kept deliberately simple: value semantics, bounds-checked access in debug
// builds, and free functions for algebra (see blas.hpp, lu.hpp, solve.hpp).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace mfcp {

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// From nested initializer list: Matrix{{1,2},{3,4}}. All rows must have
  /// equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  static Matrix ones(std::size_t rows, std::size_t cols);
  static Matrix identity(std::size_t n);

  /// Column vector (n x 1) from values.
  static Matrix column(std::span<const double> values);

  /// Row vector (1 x n) from values.
  static Matrix row(std::span<const double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Flat element access in row-major order.
  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  [[nodiscard]] std::span<double> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const double> flat() const noexcept {
    return data_;
  }

  /// Row r as a span (contiguous in row-major layout).
  [[nodiscard]] std::span<double> row_span(std::size_t r);
  [[nodiscard]] std::span<const double> row_span(std::size_t r) const;

  void fill(double value) noexcept;

  /// Reshape preserving element count and row-major order.
  [[nodiscard]] Matrix reshaped(std::size_t rows, std::size_t cols) const;

  [[nodiscard]] Matrix transposed() const;

  /// Extracts the c-th column as an n x 1 matrix.
  [[nodiscard]] Matrix col_vector(std::size_t c) const;

  /// Writes an n x 1 (or 1 x n) vector into column c.
  void set_col(std::size_t c, const Matrix& v);

  /// Element-wise in-place operations with shape checks.
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);

/// True if all elements differ by at most `tol`.
bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace mfcp
