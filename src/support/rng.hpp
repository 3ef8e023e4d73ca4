// Deterministic, splittable random number generation.
//
// Experiments in this repo must be reproducible bit-for-bit under a fixed
// seed, including when the perturbation loop of Algorithm 2 runs on a thread
// pool. We therefore use xoshiro256** seeded through SplitMix64 and derive
// independent per-worker streams with Rng::split(), instead of sharing one
// std::mt19937 behind a mutex.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mfcp {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive child seeds. Passes through zero-state pathologies of xoshiro.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it also works with <random>
/// distributions, but the members below are preferred: they are stable
/// across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Box–Muller (stateless variant: two uniforms per
  /// call, no cached spare, to keep split streams independent of call
  /// parity).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Bernoulli with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Derives an independent child generator. Children of distinct split
  /// calls (and the parent after the call) do not share state.
  Rng split() noexcept;

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Writes permutation(out.size()) into `out` with the same draws, so a
  /// caller can reuse one buffer.
  void permutation(std::span<std::size_t> out) noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace mfcp
