#include "support/rng.hpp"

#include <cmath>
#include <numbers>

#include "support/check.hpp"

namespace mfcp {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : state_) {
    s = sm.next();
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 significant bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method: unbiased, no modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  // Box–Muller without caching the second deviate: deterministic stream
  // consumption (exactly two u64 per call) keeps split() reproducible.
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;  // avoid log(0)
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split() noexcept {
  Rng child(0);
  // Derive the child state from fresh parent output so parent and child
  // streams diverge immediately.
  SplitMix64 sm(next_u64());
  for (auto& s : child.state_) {
    s = sm.next();
  }
  return child;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  permutation(std::span<std::size_t>(idx));
  return idx;
}

void Rng::permutation(std::span<std::size_t> out) noexcept {
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(out[i - 1], out[j]);
  }
}

}  // namespace mfcp
