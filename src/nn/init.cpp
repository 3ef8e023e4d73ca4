#include "nn/init.hpp"

#include <cmath>

namespace mfcp::nn {

Matrix he_normal(std::size_t rows, std::size_t cols, std::size_t fan_in,
                 Rng& rng) {
  const double s = std::sqrt(2.0 / static_cast<double>(fan_in));
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.normal(0.0, s);
  }
  return m;
}

Matrix zeros_init(std::size_t rows, std::size_t cols) {
  return Matrix::zeros(rows, cols);
}

}  // namespace mfcp::nn
