// Fully connected layer y = x W^T + b.
//
// Its parameters are persistent autograd leaves: forward() re-links them
// into a fresh graph each call, backward() accumulates into their grads,
// and the optimizer updates their values in place.
#pragma once

#include <vector>

#include "autograd/variable.hpp"
#include "support/rng.hpp"

namespace mfcp::nn {

using autograd::Variable;

class Linear {
 public:
  /// He-normal weights, zero bias.
  Linear(std::size_t in, std::size_t out, Rng& rng);

  /// Explicit parameters (weight: out x in, bias: 1 x out).
  Linear(Matrix weight, Matrix bias);

  /// Maps a (batch x in) activation to (batch x out).
  Variable forward(const Variable& x);

  /// The weight, then the bias (handles shared with this layer).
  std::vector<Variable> parameters();

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

  [[nodiscard]] Variable& weight() noexcept { return weight_; }
  [[nodiscard]] Variable& bias() noexcept { return bias_; }
  [[nodiscard]] const Variable& weight() const noexcept { return weight_; }
  [[nodiscard]] const Variable& bias() const noexcept { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Variable weight_;
  Variable bias_;
};

}  // namespace mfcp::nn
