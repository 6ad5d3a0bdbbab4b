// Deterministic, seedable random number generation.
//
// The whole evaluation pipeline (synthetic traces, Monte-Carlo playback,
// packet-level loss sampling) must be reproducible from a single seed, so
// we use our own small xoshiro256** implementation rather than the
// unspecified distributions of <random>.  All derived draws (uniform,
// bernoulli, exponential, lognormal, ...) are implemented here with fixed
// algorithms so results are identical across standard libraries.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace dg::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// algorithm), seeded via splitmix64 so that any 64-bit seed produces a
/// well-mixed initial state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 stream to fill the state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
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

  /// Uniform double in [0, 1): uses the top 53 bits.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniformInt(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given mean (= 1/rate).
  double exponential(double mean) {
    // 1 - uniform() is in (0, 1], keeping log() finite.
    return -mean * std::log(1.0 - uniform());
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic, throughput is not a concern here).
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Lognormal parameterised by the *median* and the sigma of the
  /// underlying normal; convenient for heavy-tailed event durations.
  double lognormalMedian(double median, double sigma) {
    return median * std::exp(sigma * normal());
  }

  /// Pareto (type I) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) {
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Weights need not be normalised; all must be >= 0 with positive sum.
  template <typename Container>
  std::size_t weightedIndex(const Container& weights) {
    double total = 0;
    for (const double w : weights) total += w;
    double x = uniform() * total;
    std::size_t i = 0;
    const std::size_t n = weights.size();
    for (const double w : weights) {
      if (x < w || i + 1 == n) return i;
      x -= w;
      ++i;
    }
    return n - 1;
  }

  /// Derives an independent child generator; used to give each link /
  /// flow / experiment its own stream from one master seed.
  Rng fork() { return Rng(next() ^ 0xA3EC647659359ACDULL); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace dg::util
