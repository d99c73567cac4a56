// Symmetric per-row int8 scalar quantization of embedding rows, and the
// serial reference kernels of the quantized code scan.
//
// The quantized IVF tier (serve::IvfRetriever) stores every posting-list
// item row as width int8 codes plus one float scale, scans the codes to
// pick an exact-rerank candidate pool, and streams ~4x fewer bytes than
// the float scan. Everything here is deterministic:
//
//   scale = maxabs(row) / kI8QuantMaxCode        (0 for an all-zero row)
//   code  = clamp(lrintf(x / scale), -127, 127)  (round half to even)
//
// and the code dot product is pure int32 arithmetic — exact, so every
// backend's I8QueryDot (backend.h) is trivially bit-identical to the
// I8Dot reference below, including the AVX2 maddubs kernel in
// backend_simd.cc (codes never reach -128, so the pairwise int16 sums
// cannot saturate). The approximate score is then one float expression,
// I8DotScore, evaluated identically everywhere.
#ifndef GNMR_TENSOR_QUANTIZE_H_
#define GNMR_TENSOR_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "src/tensor/kernel_tunables.h"

namespace gnmr {
namespace tensor {
namespace quant {

/// Quantizes one `m`-wide row into `codes[0, m)` and returns its scale.
/// Deterministic for any input, including non-finite values (NaN/inf
/// maxabs yields scale inf/NaN; codes still land in [-127, 127] via the
/// clamp). `codes` must hold m entries.
float QuantizeRowI8(const float* row, int64_t m, int8_t* codes);

/// QuantizeRowI8 over `n` contiguous rows: codes is [n, m] row-major,
/// scales has n entries.
void QuantizeRowsI8(const float* rows, int64_t n, int64_t m, int8_t* codes,
                    float* scales);

/// Serial reference int8 dot: plain int32 accumulation. Integer math is
/// associative, so this is THE result, not one association of it — any
/// vector reordering (the AVX2 kernel sums 8 int32 lanes) produces the
/// identical value.
inline int32_t I8Dot(const int8_t* a, const int8_t* b, int64_t m) {
  int32_t acc = 0;
  for (int64_t j = 0; j < m; ++j) {
    acc += static_cast<int32_t>(a[j]) * static_cast<int32_t>(b[j]);
  }
  return acc;
}

/// The approximate score of the quantized scan: the exact integer dot
/// dequantized by both scales. One multiply order — (q_scale * c_scale)
/// first — so every call site computes the bit-identical float.
inline float I8DotScore(const int8_t* q, float q_scale, const int8_t* c,
                        float c_scale, int64_t m) {
  return static_cast<float>(I8Dot(q, c, m)) * (q_scale * c_scale);
}

/// Query-side quantization of one embedding row (done once per request by
/// the quantized IVF scan).
struct QuantizedQuery {
  std::vector<int8_t> codes;
  float scale = 0.0f;
};

QuantizedQuery QuantizeQueryI8(const float* row, int64_t m);

}  // namespace quant
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_QUANTIZE_H_
