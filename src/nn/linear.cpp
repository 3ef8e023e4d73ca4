#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "support/check.hpp"

namespace mfcp::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : weight(he_normal(out, in, in, rng)),
      bias(zeros_init(1, out)),
      weight_grad(out, in),
      bias_grad(1, out) {
  MFCP_CHECK(in > 0 && out > 0, "Linear needs positive dimensions");
}

}  // namespace mfcp::nn
