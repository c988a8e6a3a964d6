#pragma once
// Deterministic pseudo-random number generation for reproducible simulations.
//
// The engine is xoshiro256** seeded via SplitMix64; identical seeds produce
// identical streams on every platform, which the determinism tests rely on.

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace deep::util {

/// Small, fast, reproducible RNG (xoshiro256**).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    auto next = [&seed]() {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next();
  }

  std::uint64_t operator()() {
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

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    DEEP_EXPECT(bound > 0, "Rng::below: bound must be positive");
    // A power of two has rejection threshold 0 and its modulus is a mask:
    // the same single draw and the same result, without the two divisions.
    if ((bound & (bound - 1)) == 0) return (*this)() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// A fair coin: the same draw and result as chance(0.5), which holds
  /// exactly when the top bit is clear, without the double arithmetic.
  bool coin() { return ((*this)() >> 63) == 0; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace deep::util
