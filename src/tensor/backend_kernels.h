// The serial kernel bodies: the reference semantics of every backend op.
//
// kSerialRangeKernels packs them as a RangeKernels table. The "serial"
// backend runs it as one inline range per op; the sharded backend runs it
// per shard on hosts without AVX2+FMA, and the AVX2 table in
// backend_simd.cc is tested against it. Every body writes only the output
// rows it is given, in the per-element accumulation order these loops
// define, so fan-out never changes a result.
// Internal header — include only from backend implementation files.
#ifndef GNMR_TENSOR_BACKEND_KERNELS_H_
#define GNMR_TENSOR_BACKEND_KERNELS_H_

#include <algorithm>
#include <cstdint>

#include "src/tensor/backend.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/kernel_tunables.h"

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

// Output rows [i0, i1) of a [n,k] x b^T with b stored [m,k]: MatMulRow's
// order (ascending kk, a == 0 skipped), reading b's column kk where the
// materialised transpose would have had its row kk.
inline void MatMulTransBRows(const float* a, const float* b, float* out,
                             int64_t k, int64_t m, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * m;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = a_row[kk];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < m; ++j) out_row[j] += av * b[j * k + kk];
    }
  }
}

// Output rows [i0, i1) of a^T x b with a stored [k,n]: output row i is
// MatMulRow over column i of a. The kk loop runs outermost so both a and
// b are read along their rows; every output element still sees ascending
// kk with the a == 0 skip.
inline void MatMulTransARows(const float* a, const float* b, float* out,
                             int64_t n, int64_t k, int64_t m, int64_t i0,
                             int64_t i1) {
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * n;
    const float* brow = b + kk * m;
    for (int64_t i = i0; i < i1; ++i) {
      float av = a_row[i];
      if (av == 0.0f) continue;
      float* out_row = out + i * m;
      for (int64_t j = 0; j < m; ++j) out_row[j] += av * brow[j];
    }
  }
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

// Scatter-add of every source row, in ascending source order:
// target[idx[r], :] += src[r, :].
inline void ScatterAddRowList(float* target, int64_t m, const int64_t* idx,
                              int64_t count, const float* src) {
  for (int64_t r = 0; r < count; ++r) {
    const float* srow = src + r * m;
    float* trow = target + idx[r] * m;
    for (int64_t j = 0; j < m; ++j) trow[j] += srow[j];
  }
}

inline void GatherRowRange(const float* a, int64_t m, const int64_t* idx,
                           float* out, int64_t lo, int64_t hi) {
  for (int64_t r = lo; r < hi; ++r) {
    std::copy(a + idx[r] * m, a + (idx[r] + 1) * m, out + r * m);
  }
}

// Rows [lo, hi) of RowDot, each a LanePartialDot (backend.h): lane l
// sums elements j with j % kReduceLanes == l in double, lanes combine in
// ascending order. The lane shape — not plain left-to-right accumulation
// — is the op's contract: it is exactly the association a vector unit
// computes with the row cut into kReduceLanes-wide groups, so the AVX2
// kernels can vectorize RowDot while both tables produce bit-identical
// sums.
inline void RowDotRows(const float* a, const float* b, float* out, int64_t m,
                       int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    out[i] = static_cast<float>(LanePartialDot(a + i * m, b + i * m, m));
  }
}

// Double partial over one fixed-width chunk (the unit of ReduceSum's
// backend-independent association, kReduceSumChunk), accumulated with the
// same fixed kReduceLanes lane-partial shape as RowDotRows and for the same
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

// out[i] = sum of row i of in [., m] for i in [lo, hi): float, from +0.0f,
// ascending columns (ReduceToShape's [n,m] -> [n,1] order).
inline void RowSumsRange(const float* in, float* out, int64_t m, int64_t lo,
                         int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < m; ++j) acc += in[i * m + j];
    out[i] = acc;
  }
}

// out[j] += in[i, j] over all rows in ascending order (ReduceToShape's
// [n,m] -> [1,m] order on a zeroed out).
inline void ColSumsRange(const float* in, float* out, int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) out[j] += in[i * m + j];
  }
}

// Rows [lo, hi) of KernelBackend::BroadcastZip through the contiguous zip
// body `f` (a MapLoop/ZipLoop instantiation or its vector twin): the
// broadcast operand is expanded into a block-sized stack buffer, so `f`
// runs over long contiguous spans instead of one element at a time. The
// expansion copies values only, so each output element is f of exactly
// the operands the strided definition names.
inline constexpr int64_t kBroadcastBlock = 1024;

inline void BroadcastZipRows(const float* a, const float* b, float* out,
                             int64_t m, KernelBackend::Broadcast kind,
                             bool b_first, KernelBackend::ZipFn f, float p,
                             int64_t lo, int64_t hi) {
  float buf[kBroadcastBlock];
  auto zip = [&](int64_t offset, const float* bb, int64_t len) {
    if (b_first) {
      f(bb, a + offset, out + offset, len, p);
    } else {
      f(a + offset, bb, out + offset, len, p);
    }
  };
  const bool col = kind == KernelBackend::Broadcast::kCol;
  if (m > kBroadcastBlock) {
    // Long rows: a bias row is already contiguous; a gate value fills the
    // buffer once per row and is zipped chunk by chunk.
    for (int64_t i = lo; i < hi; ++i) {
      if (!col) {
        zip(i * m, b, m);
        continue;
      }
      std::fill(buf, buf + kBroadcastBlock, b[i]);
      for (int64_t j = 0; j < m; j += kBroadcastBlock) {
        zip(i * m + j, buf, std::min(kBroadcastBlock, m - j));
      }
    }
    return;
  }
  const int64_t block_rows = kBroadcastBlock / m;
  if (!col) {
    for (int64_t r = 0; r < block_rows; ++r) std::copy(b, b + m, buf + r * m);
  }
  for (int64_t i = lo; i < hi; i += block_rows) {
    const int64_t rows = std::min(block_rows, hi - i);
    if (col) {
      for (int64_t r = 0; r < rows; ++r) {
        std::fill(buf + r * m, buf + (r + 1) * m, b[i + r]);
      }
    }
    zip(i * m, buf, rows * m);
  }
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

// The serial bodies as a range table: what "serial" runs as one inline
// range, and the sharded backend per shard on hosts without AVX2+FMA.
// Eltwise bodies run as given.
inline constexpr RangeKernels kSerialRangeKernels = {
    &MatMulRows,       &MatMulTransBRows,    &MatMulTransARows,
    &SpmmRows,         &GatherRowRange,      &ScatterAddRowList,
    &RowDotRows,       &ChunkSum,            &RowSumsRange,
    &ColSumsRange,     &QueryDotRows,        &QueryDotIndexedRows,
    nullptr,           0,                    nullptr,
    0,
};

}  // namespace kernels
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_BACKEND_KERNELS_H_
