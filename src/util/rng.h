// Deterministic pseudo-random number generation (PCG32). Every stochastic
// component in the library (initialisers, samplers, generators, dropout)
// takes an explicit Rng so experiments are reproducible bit-for-bit.
#ifndef GNMR_UTIL_RNG_H_
#define GNMR_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gnmr {
namespace util {

/// PCG32 generator (O'Neill 2014): small state, good statistical quality,
/// fully deterministic across platforms for a given seed/stream.
class Rng {
 public:
  /// Creates a generator from a seed and an optional stream id. Two Rngs
  /// with the same seed and different streams produce independent sequences.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Next raw 32-bit value.
  uint32_t NextUint32();

  /// Uniform integer in [0, bound), bias-free via rejection sampling.
  /// Requires bound > 0.
  uint32_t UniformUint32(uint32_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform float in [0, 1).
  float UniformFloat();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform float in [lo, hi).
  float Uniform(float lo, float hi);

  /// Standard normal via Box-Muller (caches the spare value).
  float Normal();

  /// Normal with given mean and stddev.
  float Normal(float mean, float stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Samples an index from an (unnormalised) non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformUint32(static_cast<uint32_t>(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Draws `n` distinct values uniformly from [0, population), n <= population.
  /// Uses Floyd's algorithm; O(n) expected for n << population.
  std::vector<int64_t> SampleWithoutReplacement(int64_t population, int64_t n);

 private:
  uint64_t state_;
  uint64_t inc_;
  bool has_spare_normal_ = false;
  float spare_normal_ = 0.0f;
};

}  // namespace util
}  // namespace gnmr

#endif  // GNMR_UTIL_RNG_H_
