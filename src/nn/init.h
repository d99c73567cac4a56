// Weight initialisation schemes.
#ifndef GNMR_NN_INIT_H_
#define GNMR_NN_INIT_H_

#include <cstdint>

#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace gnmr {
namespace nn {

/// Xavier/Glorot uniform: U[-a, a], a = sqrt(6 / (fan_in + fan_out)).
tensor::Tensor XavierUniform(int64_t fan_in, int64_t fan_out, util::Rng* rng);

/// Small-scale normal embedding init: N(0, stddev^2).
tensor::Tensor EmbeddingNormal(int64_t count, int64_t dim, float stddev,
                               util::Rng* rng);

}  // namespace nn
}  // namespace gnmr

#endif  // GNMR_NN_INIT_H_
