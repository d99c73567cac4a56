// Shared serial kernel bodies for the kernel backends (backend.h).
//
// These loops ARE the reference semantics: SerialBackend runs them over
// [0, rows), and kSerialRangeKernels packs the same bodies as the range
// table the sharded backend runs on hosts without AVX2+FMA, so fan-out
// never changes an output element's accumulation order.
// Internal header — include only from backend implementation files.
#ifndef GNMR_TENSOR_BACKEND_KERNELS_H_
#define GNMR_TENSOR_BACKEND_KERNELS_H_

#include <algorithm>
#include <cstdint>

#include "src/tensor/backend.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/quantize.h"
#include "src/tensor/sparse.h"

namespace gnmr {
namespace tensor {
namespace kernels {

// One dense output row: out_row += a_row * b ([k] x [k,m]).
inline void MatMulRow(const float* a_row, const float* b, float* out_row,
                      int64_t k, int64_t m) {
  for (int64_t kk = 0; kk < k; ++kk) {
    float av = a_row[kk];
    if (av == 0.0f) continue;
    const float* brow = b + kk * m;
    for (int64_t j = 0; j < m; ++j) out_row[j] += av * brow[j];
  }
}

// Output rows [i0, i1) of MatMul; `out` is the whole [n,m] output.
inline void MatMulRows(const float* a, const float* b, float* out, int64_t k,
                       int64_t m, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) MatMulRow(a + i * k, b, out + i * m, k, m);
}

// One sparse output row over the raw CSR arrays: out_row += A[i, :] * x,
// entries in ascending order.
inline void SpmmRowRaw(const int64_t* row_ptr, const int64_t* col_idx,
                       const float* values, const float* x, float* out_row,
                       int64_t i, int64_t d) {
  for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
    float v = values[p];
    const float* xrow = x + col_idx[p] * d;
    for (int64_t j = 0; j < d; ++j) out_row[j] += v * xrow[j];
  }
}

// Output rows [i0, i1) of the CSR product A x; `out` is the whole output.
inline void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
                     const float* values, const float* x, float* out,
                     int64_t d, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    SpmmRowRaw(row_ptr, col_idx, values, x, out + i * d, i, d);
  }
}

inline void SpmmRow(const CsrMatrix& a, const float* x, float* out_row,
                    int64_t i, int64_t d) {
  SpmmRowRaw(a.row_ptr().data(), a.col_idx().data(), a.values().data(), x,
             out_row, i, d);
}

// Scatter-add restricted to target rows in [row_lo, row_hi): scans all
// source rows in ascending order and applies only in-range ones, so each
// target row sees the same accumulation order as the serial loop no matter
// how [0, rows) is partitioned.
inline void ScatterAddRowRange(float* target, int64_t m, const int64_t* idx,
                               int64_t count, const float* src,
                               int64_t row_lo, int64_t row_hi) {
  for (int64_t r = 0; r < count; ++r) {
    int64_t dst = idx[r];
    if (dst < row_lo || dst >= row_hi) continue;
    const float* srow = src + r * m;
    float* trow = target + dst * m;
    for (int64_t j = 0; j < m; ++j) trow[j] += srow[j];
  }
}

inline void GatherRowRange(const float* a, int64_t m, const int64_t* idx,
                           float* out, int64_t lo, int64_t hi) {
  for (int64_t r = lo; r < hi; ++r) {
    std::copy(a + idx[r] * m, a + (idx[r] + 1) * m, out + r * m);
  }
}

// One row dot product in double, accumulated as kReduceLanes fixed lane
// partials (lane l sums elements j with j % kReduceLanes == l) combined in
// ascending lane order. The lane shape — not plain left-to-right
// accumulation — is the op's contract: it is exactly the association a
// vector unit computes with the row cut into kReduceLanes-wide groups, so
// the AVX2 kernels can vectorize RowDot while every backend (this scalar
// body included) produces bit-identical sums.
inline double RowDotOne(const float* a_row, const float* b_row, int64_t m) {
  // The lane-partial reference moved to backend.h (LanePartialDot) when
  // the serving scans adopted the same contract; this is the same body.
  return LanePartialDot(a_row, b_row, m);
}

inline void RowDotRows(const float* a, const float* b, float* out, int64_t m,
                       int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    out[i] = static_cast<float>(RowDotOne(a + i * m, b + i * m, m));
  }
}

// Double partial over one fixed-width chunk (the unit of ReduceSum's
// backend-independent association, kReduceSumChunk), accumulated with the
// same fixed kReduceLanes lane-partial shape as RowDotOne and for the same
// reason.
inline double ChunkSum(const float* in, int64_t begin, int64_t end) {
  double lane[kReduceLanes] = {0.0};
  int64_t i = begin;
  for (; i + kReduceLanes <= end; i += kReduceLanes) {
    for (int64_t l = 0; l < kReduceLanes; ++l) {
      lane[l] += static_cast<double>(in[i + l]);
    }
  }
  for (int64_t l = 0; i + l < end; ++l) {
    lane[l] += static_cast<double>(in[i + l]);
  }
  double acc = 0.0;
  for (int64_t l = 0; l < kReduceLanes; ++l) acc += lane[l];
  return acc;
}

// ---- Serving scans: the lane-partial (float) and int32 (code) references.

inline void QueryDotRows(const float* q, const float* rows, float* out,
                         int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(LanePartialDot(q, rows + i * m, m));
  }
}

inline void QueryDotIndexedRows(const float* q, const float* base,
                                const int64_t* idx, float* out, int64_t n,
                                int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(LanePartialDot(q, base + idx[i] * m, m));
  }
}

inline void I8QueryDotRows(const int8_t* q, const int8_t* codes, int32_t* out,
                           int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) out[i] = quant::I8Dot(q, codes + i * m, m);
}

// The serial bodies as a range table: what the sharded backend runs per
// shard on hosts without AVX2+FMA. Eltwise bodies run as given.
inline constexpr RangeKernels kSerialRangeKernels = {
    &MatMulRows, &SpmmRows,     &GatherRowRange,      &ScatterAddRowRange,
    &RowDotRows, &ChunkSum,     &QueryDotRows,        &QueryDotIndexedRows,
    &I8QueryDotRows, nullptr,   0,                    nullptr,
    0,
};

}  // namespace kernels
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_BACKEND_KERNELS_H_
