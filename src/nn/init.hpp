// Weight initialization schemes.
#pragma once

#include "linalg/matrix.hpp"
#include "support/rng.hpp"

namespace mfcp::nn {

/// He/Kaiming normal: N(0, sqrt(2 / fan_in)). Suited to ReLU nets.
Matrix he_normal(std::size_t rows, std::size_t cols, std::size_t fan_in,
                 Rng& rng);

/// All-zero matrix (bias init).
Matrix zeros_init(std::size_t rows, std::size_t cols);

}  // namespace mfcp::nn
