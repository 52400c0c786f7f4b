#pragma once
// Deterministic pseudo-random number generation.
//
// Simulations must be reproducible per seed: every stochastic decision
// (injection, destination choice, fault arrival, bit positions) draws from
// an Rng instance owned by the component making the decision, so adding a
// component never perturbs another component's stream.

#include <cstdint>

namespace ftnoc {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 2^256-1 period.
/// Seeded through splitmix64 so that nearby seeds give unrelated streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // The per-flit draws (next_u64, next_double, bernoulli) are defined
  // here so they inline at every call site at compile time instead of
  // depending on LTO's unit-growth budget, which shrinks whenever code is
  // deleted elsewhere.

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Derive an independent child generator (for per-component streams).
  Rng fork();

  /// Stateless seed derivation: hashes (base, index) into a seed whose
  /// stream is unrelated to `base`'s own stream and to every other index.
  /// Sweeps use this to give point i the same seed no matter which worker
  /// thread runs it or in what order.
  static std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace ftnoc
