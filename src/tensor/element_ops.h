// Elementwise op bodies shared by the ops layer (tensor_ops.cc), the
// backward zips (ad_ops.cc) and the AVX2 range kernels' vector twins
// (backend_simd.cc).
//
// The cheap arithmetic bodies are defined through X-macros carrying the
// *expression itself*, so three things are generated from one list and can
// never drift apart:
//   1. the portable inline functions below (elops::AddEl, ...), which
//      parameterize the shared MapLoop/ZipLoop templates (backend.h);
//   2. the key tables in backend.cc — the exact MapFn/ZipFn pointers the
//      ops layer passes to EltwiseMap/EltwiseZip;
//   3. the AVX2-compiled twin loops in backend_simd.cc, which the simd
//      backend substitutes after a pointer lookup in (2).
// Bit-exactness of the substitution rests on the expressions being single
// IEEE ops (or compare+select), evaluated per element in both copies; the
// simd translation unit is compiled with -ffp-contract=off so no twin can
// fuse a mul+add pair the portable copy keeps separate.
//
// The transcendental bodies (sigmoid, tanh, exp, ...) are plain functions:
// they are libm-bound, gain nothing from vectorization, and have no twins.
//
// Map expressions may reference `x` (element) and `p` (scalar parameter);
// zip expressions may reference `x` (first input), `y` (second input) and
// `p`. For the backward zips dispatched by ad_ops.cc, `x` is the cached
// forward value and `y` is the upstream gradient.
#ifndef GNMR_TENSOR_ELEMENT_OPS_H_
#define GNMR_TENSOR_ELEMENT_OPS_H_

#include <cmath>

// clang-format off
#define GNMR_ELTWISE_MAP_BODIES(X)             \
  X(AddScalar, x + p)                          \
  X(MulScalar, x * p)                          \
  X(Neg, -x)                                   \
  X(Relu, x > 0.0f ? x : 0.0f)                 \
  X(LeakyRelu, x > 0.0f ? x : p * x)           \
  X(Square, x * x)                             \
  X(Sqrt, std::sqrt(x))

#define GNMR_ELTWISE_ZIP_BODIES(X)             \
  X(Add, x + y)                                \
  X(Sub, x - y)                                \
  X(Mul, x * y)                                \
  X(Div, x / y)                                \
  X(ReluBwd, x > 0.0f ? y : 0.0f)              \
  X(LeakyReluBwd, x > 0.0f ? y : p * y)        \
  X(SigmoidBwd, (y * x) * (1.0f - x))          \
  X(TanhBwd, y * (1.0f - x * x))               \
  X(LogBwd, x > p ? y / x : 0.0f)              \
  X(SqrtBwd, x > 0.0f ? (0.5f * y) / x : 0.0f)
// clang-format on

namespace gnmr {
namespace tensor {
namespace elops {

#define GNMR_DEFINE_MAP_BODY(name, expr)  \
  inline float name##El(float x, float p) { \
    (void)p;                                \
    return (expr);                          \
  }
GNMR_ELTWISE_MAP_BODIES(GNMR_DEFINE_MAP_BODY)
#undef GNMR_DEFINE_MAP_BODY

#define GNMR_DEFINE_ZIP_BODY(name, expr)           \
  inline float name##El(float x, float y, float p) { \
    (void)p;                                         \
    return (expr);                                   \
  }
GNMR_ELTWISE_ZIP_BODIES(GNMR_DEFINE_ZIP_BODY)
#undef GNMR_DEFINE_ZIP_BODY

// ---- Transcendental map bodies (no SIMD twins) ------------------------------

inline float SigmoidEl(float x, float) {
  // Branch on sign for numerical stability.
  if (x >= 0.0f) {
    float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  float z = std::exp(x);
  return z / (1.0f + z);
}
inline float TanhEl(float x, float) { return std::tanh(x); }
inline float ExpEl(float x, float) { return std::exp(x); }
inline float LogEl(float x, float p) { return std::log(std::max(x, p)); }
inline float SoftplusEl(float x, float) {
  // log(1+e^x) = max(x,0) + log1p(e^{-|x|})
  return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
}

}  // namespace elops
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_ELEMENT_OPS_H_
