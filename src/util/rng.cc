#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace gnmr {
namespace util {

Rng::Rng(uint64_t seed, uint64_t stream) {
  state_ = 0u;
  inc_ = (stream << 1u) | 1u;
  NextUint32();
  state_ += seed;
  NextUint32();
}

uint32_t Rng::NextUint32() {
  uint64_t oldstate = state_;
  state_ = oldstate * 6364136223846793005ULL + inc_;
  uint32_t xorshifted =
      static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
  uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((~rot + 1u) & 31));
}

uint32_t Rng::UniformUint32(uint32_t bound) {
  GNMR_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  uint32_t threshold = (~bound + 1u) % bound;
  for (;;) {
    uint32_t r = NextUint32();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  GNMR_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range requested; compose two draws
    uint64_t r = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
    return static_cast<int64_t>(r);
  }
  if (range <= UINT32_MAX) {
    return lo + static_cast<int64_t>(UniformUint32(static_cast<uint32_t>(range)));
  }
  // Wide range: rejection on 64-bit draws.
  uint64_t threshold = (~range + 1u) % range;
  for (;;) {
    uint64_t r = (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
    if (r >= threshold) return lo + static_cast<int64_t>(r % range);
  }
}

float Rng::UniformFloat() {
  // 24 high bits -> [0,1) with full float precision.
  return (NextUint32() >> 8) * (1.0f / 16777216.0f);
}

double Rng::UniformDouble() {
  uint64_t hi = NextUint32();
  uint64_t lo = NextUint32();
  uint64_t bits = ((hi << 32) | lo) >> 11;  // 53 bits
  return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
}

float Rng::Uniform(float lo, float hi) {
  return lo + (hi - lo) * UniformFloat();
}

float Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  float u1 = 0.0f;
  do {
    u1 = UniformFloat();
  } while (u1 <= 1e-12f);
  float u2 = UniformFloat();
  float mag = std::sqrt(-2.0f * std::log(u1));
  float two_pi_u2 = 6.28318530717958647692f * u2;
  spare_normal_ = mag * std::sin(two_pi_u2);
  has_spare_normal_ = true;
  return mag * std::cos(two_pi_u2);
}

float Rng::Normal(float mean, float stddev) { return mean + stddev * Normal(); }

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    GNMR_CHECK_GE(w, 0.0);
    total += w;
  }
  GNMR_CHECK_GT(total, 0.0) << "Categorical needs a positive total weight";
  double r = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t population,
                                                   int64_t n) {
  GNMR_CHECK_GE(population, n);
  GNMR_CHECK_GE(n, 0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  if (n == 0) return out;
  if (n * 3 >= population) {
    // Dense case: shuffle a full index range and take a prefix.
    std::vector<int64_t> all(static_cast<size_t>(population));
    for (int64_t i = 0; i < population; ++i) all[static_cast<size_t>(i)] = i;
    Shuffle(&all);
    all.resize(static_cast<size_t>(n));
    return all;
  }
  // Sparse case: Floyd's algorithm with linear membership probe (n is small).
  auto contains = [&out](int64_t v) {
    for (int64_t x : out)
      if (x == v) return true;
    return false;
  };
  for (int64_t j = population - n; j < population; ++j) {
    int64_t t = UniformInt(0, j);
    if (!contains(t)) {
      out.push_back(t);
    } else {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace util
}  // namespace gnmr
