// Deterministic, fast random number generation (xoshiro256**).
//
// All synthetic dataset generation and weight initialisation flows
// through this RNG so every experiment is reproducible from a seed.
#pragma once

#include <cstdint>

namespace tagnn {

/// xoshiro256** 1.0 by Blackman & Vigna, seeded via splitmix64.
/// Not cryptographic; chosen for speed and statistical quality.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next 64 uniformly random bits.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Standard normal via Box–Muller (no state caching; two calls per draw).
  float normal();

  /// Bernoulli trial with probability p.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

}  // namespace tagnn
