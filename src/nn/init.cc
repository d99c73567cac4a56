#include "src/nn/init.h"

#include <cmath>

namespace gnmr {
namespace nn {

tensor::Tensor XavierUniform(int64_t fan_in, int64_t fan_out,
                             util::Rng* rng) {
  float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return tensor::Tensor::RandomUniform({fan_in, fan_out}, rng, -a, a);
}

tensor::Tensor EmbeddingNormal(int64_t count, int64_t dim, float stddev,
                               util::Rng* rng) {
  return tensor::Tensor::RandomNormal({count, dim}, rng, 0.0f, stddev);
}

}  // namespace nn
}  // namespace gnmr
