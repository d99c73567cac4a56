// Hand-vectorized AVX2/FMA range kernels behind the "sharded" backend on
// hosts with AVX2+FMA (the RangeKernels table in backend_simd.h).
//
// This is the only translation unit built with -mavx2 -mfma (plus
// -ffp-contract=off and -O3; see src/CMakeLists.txt), so everything that
// can emit vector instructions lives here behind internal linkage. Two
// hard rules keep a mixed binary safe on hosts without AVX2:
//
//   1. No shared inline kernel bodies. backend_kernels.h is deliberately
//      NOT included and the elops:: inline functions are never odr-used:
//      an external-linkage inline function compiled here would be a
//      COMDAT candidate, and if the linker kept *this* TU's AVX2 copy it
//      would also run inside the portable serial path — SIGILL on a
//      non-AVX2 host. Every helper below is internal-linkage.
//   2. The registry (backend.cc) only calls NativeSimdKernels() after the
//      runtime cpuid probe (util::HostCpuFeatures) confirms AVX2+FMA, so
//      no code from this TU executes on hosts that lack them.
//
// Determinism contract (same as the serial kernels): each output element
// is accumulated in exactly the serial reference order, with mul and add
// kept unfused. The tile/panel shapes below only pick which *elements*
// share registers, never the order within one element's sum:
//   - MatMul: a register tile covers kSimdMatMulRowTile output rows x
//     16/32 columns and sweeps the full k range ascending; each output
//     element sees the same ascending-k mul+add chain as MatMulRow,
//     including its zero-skip (a per-row-tile zero scan picks a guarded
//     tile kernel when needed, so 0 * inf can never poison a row).
//   - SpMM: column panels re-walk a row's nonzeros once per panel; each
//     output element still accumulates in ascending entry order.
//   - RowDot / ReduceSum / QueryDot(Indexed): the kReduceLanes=8
//     lane-partial association (backend.h LanePartialDot — never odr-used
//     here, see rule 1) IS what two 4-wide double accumulators compute, so
//     the vector loop reproduces the scalar reference bit-for-bit by
//     construction.
//   - I8QueryDot: pure int32 arithmetic is associative, so the maddubs
//     reduction equals quant::I8Dot exactly — no association contract
//     needed, just the no--128-codes precondition that keeps the pairwise
//     int16 sums saturation-free.
//   - EltwiseMap/Zip: per-element single-expression bodies have no
//     accumulation to reorder; the twins here are generated from the same
//     X-macro expressions as the portable copies (element_ops.h) and are
//     bit-identical under -ffp-contract=off, just compiled where the
//     autovectorizer may use AVX2.
#include "src/tensor/backend_simd.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__x86_64__)

#include <immintrin.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/tensor/element_ops.h"
#include "src/tensor/kernel_tunables.h"
#include "src/util/cpu_features.h"

namespace gnmr {
namespace tensor {
namespace simd {
namespace {

constexpr int kRT = static_cast<int>(kSimdMatMulRowTile);
constexpr int64_t kCT2 = kSimdMatMulColTileAvx2;
constexpr int64_t kCT5 = kSimdMatMulColTileAvx512;

std::atomic<bool> g_avx512_tiles{true};

// ---- MatMul -----------------------------------------------------------------

// True if any of `count` floats starting at `p` is (+/-)0.0f. One row
// tile's slice of A is contiguous (kRT rows x k), so MatMul scans it once
// per row tile to choose between the branch-free and the guarded tile
// kernels below.
bool AnyZero(const float* p, int64_t count) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256 eq = _mm256_cmp_ps(_mm256_loadu_ps(p + i), zero, _CMP_EQ_OQ);
    if (_mm256_movemask_ps(eq) != 0) return true;
  }
  for (; i < count; ++i) {
    if (p[i] == 0.0f) return true;
  }
  return false;
}

// Serial-order rows restricted to columns [j0, j1): the row/column tails
// around the register tiles. Identical loop structure (and zero-skip) to
// the serial MatMulRow, so tail elements match the reference exactly.
void ScalarMatMulRows(const float* a, const float* b, float* out, int64_t i0,
                      int64_t i1, int64_t k, int64_t m, int64_t j0,
                      int64_t j1) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * m;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * m;
      for (int64_t j = j0; j < j1; ++j) out_row[j] += av * brow[j];
    }
  }
}

// kRT x 16 register tile, branch-free: valid only when the tile's slice
// of A holds no zeros (AnyZero above), since it skips the serial
// reference's zero-skip. Unfused mul+add, ascending k.
void Tile6x16(const float* a, const float* b, float* out, int64_t i0,
              int64_t j0, int64_t k, int64_t m) {
  __m256 acc[kRT][2];
  for (int r = 0; r < kRT; ++r) {
    acc[r][0] = _mm256_loadu_ps(out + (i0 + r) * m + j0);
    acc[r][1] = _mm256_loadu_ps(out + (i0 + r) * m + j0 + 8);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    __m256 b0 = _mm256_loadu_ps(b + kk * m + j0);
    __m256 b1 = _mm256_loadu_ps(b + kk * m + j0 + 8);
    for (int r = 0; r < kRT; ++r) {
      __m256 av = _mm256_broadcast_ss(a + (i0 + r) * k + kk);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < kRT; ++r) {
    _mm256_storeu_ps(out + (i0 + r) * m + j0, acc[r][0]);
    _mm256_storeu_ps(out + (i0 + r) * m + j0 + 8, acc[r][1]);
  }
}

// Guarded kRT x 16 tile: per (k, row) zero test reproducing the serial
// zero-skip exactly. Used only for row tiles whose A slice contains
// zeros.
void Tile6x16Guarded(const float* a, const float* b, float* out, int64_t i0,
                     int64_t j0, int64_t k, int64_t m) {
  __m256 acc[kRT][2];
  for (int r = 0; r < kRT; ++r) {
    acc[r][0] = _mm256_loadu_ps(out + (i0 + r) * m + j0);
    acc[r][1] = _mm256_loadu_ps(out + (i0 + r) * m + j0 + 8);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    __m256 b0 = _mm256_loadu_ps(b + kk * m + j0);
    __m256 b1 = _mm256_loadu_ps(b + kk * m + j0 + 8);
    for (int r = 0; r < kRT; ++r) {
      float av = a[(i0 + r) * k + kk];
      if (av == 0.0f) continue;
      __m256 avv = _mm256_set1_ps(av);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(avv, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(avv, b1));
    }
  }
  for (int r = 0; r < kRT; ++r) {
    _mm256_storeu_ps(out + (i0 + r) * m + j0, acc[r][0]);
    _mm256_storeu_ps(out + (i0 + r) * m + j0 + 8, acc[r][1]);
  }
}

// kRT x 32 tiles for AVX-512 hosts: with mul+add kept unfused (FMA would
// change rounding), AVX2 peaks around 3x serial on current cores; the
// 2x-wider zmm tile is what clears the >=4x target. Runtime-dispatched on
// cpuid avx512f — these two functions are the only AVX-512 code in the
// binary.
__attribute__((target("avx512f"))) void Tile6x32(const float* a,
                                                 const float* b, float* out,
                                                 int64_t i0, int64_t j0,
                                                 int64_t k, int64_t m) {
  __m512 acc[kRT][2];
  for (int r = 0; r < kRT; ++r) {
    acc[r][0] = _mm512_loadu_ps(out + (i0 + r) * m + j0);
    acc[r][1] = _mm512_loadu_ps(out + (i0 + r) * m + j0 + 16);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    __m512 b0 = _mm512_loadu_ps(b + kk * m + j0);
    __m512 b1 = _mm512_loadu_ps(b + kk * m + j0 + 16);
    for (int r = 0; r < kRT; ++r) {
      __m512 av = _mm512_set1_ps(a[(i0 + r) * k + kk]);
      acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(av, b0));
      acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < kRT; ++r) {
    _mm512_storeu_ps(out + (i0 + r) * m + j0, acc[r][0]);
    _mm512_storeu_ps(out + (i0 + r) * m + j0 + 16, acc[r][1]);
  }
}

__attribute__((target("avx512f"))) void Tile6x32Guarded(
    const float* a, const float* b, float* out, int64_t i0, int64_t j0,
    int64_t k, int64_t m) {
  __m512 acc[kRT][2];
  for (int r = 0; r < kRT; ++r) {
    acc[r][0] = _mm512_loadu_ps(out + (i0 + r) * m + j0);
    acc[r][1] = _mm512_loadu_ps(out + (i0 + r) * m + j0 + 16);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    __m512 b0 = _mm512_loadu_ps(b + kk * m + j0);
    __m512 b1 = _mm512_loadu_ps(b + kk * m + j0 + 16);
    for (int r = 0; r < kRT; ++r) {
      float av = a[(i0 + r) * k + kk];
      if (av == 0.0f) continue;
      __m512 avv = _mm512_set1_ps(av);
      acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(avv, b0));
      acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(avv, b1));
    }
  }
  for (int r = 0; r < kRT; ++r) {
    _mm512_storeu_ps(out + (i0 + r) * m + j0, acc[r][0]);
    _mm512_storeu_ps(out + (i0 + r) * m + j0 + 16, acc[r][1]);
  }
}

// One full row tile (rows [i0, i0 + kRT)): zero-scan once, then cascade
// 32-wide tiles (AVX-512 hosts), 16-wide tiles, scalar column tail. Each
// output element is computed by exactly one kernel over the full k range.
void MatMulRowTile(const float* a, const float* b, float* out, int64_t i0,
                   int64_t k, int64_t m, bool use512) {
  const bool zeros = AnyZero(a + i0 * k, kRT * k);
  int64_t j0 = 0;
  if (use512) {
    for (; j0 + kCT5 <= m; j0 += kCT5) {
      if (zeros) {
        Tile6x32Guarded(a, b, out, i0, j0, k, m);
      } else {
        Tile6x32(a, b, out, i0, j0, k, m);
      }
    }
  }
  for (; j0 + kCT2 <= m; j0 += kCT2) {
    if (zeros) {
      Tile6x16Guarded(a, b, out, i0, j0, k, m);
    } else {
      Tile6x16(a, b, out, i0, j0, k, m);
    }
  }
  if (j0 < m) ScalarMatMulRows(a, b, out, i0, i0 + kRT, k, m, j0, m);
}

// ---- SpMM -------------------------------------------------------------------

// One output row, column-paneled: up to 4 ymm accumulators per panel,
// re-walking the row's nonzeros (ascending, like the serial SpmmRow) once
// per panel. Unfused mul+add.
void SpmmRowSimd(const int64_t* row_ptr, const int64_t* col_idx,
                 const float* values, const float* x, float* out_row,
                 int64_t i, int64_t d) {
  const int64_t p0 = row_ptr[i];
  const int64_t p1 = row_ptr[i + 1];
  int64_t j0 = 0;
  for (; j0 + kSimdSpmmColPanel <= d; j0 += kSimdSpmmColPanel) {
    __m256 acc0 = _mm256_loadu_ps(out_row + j0);
    __m256 acc1 = _mm256_loadu_ps(out_row + j0 + 8);
    __m256 acc2 = _mm256_loadu_ps(out_row + j0 + 16);
    __m256 acc3 = _mm256_loadu_ps(out_row + j0 + 24);
    for (int64_t p = p0; p < p1; ++p) {
      __m256 v = _mm256_set1_ps(values[p]);
      const float* xr = x + col_idx[p] * d + j0;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 8)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 16)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 24)));
    }
    _mm256_storeu_ps(out_row + j0, acc0);
    _mm256_storeu_ps(out_row + j0 + 8, acc1);
    _mm256_storeu_ps(out_row + j0 + 16, acc2);
    _mm256_storeu_ps(out_row + j0 + 24, acc3);
  }
  for (; j0 + 8 <= d; j0 += 8) {
    __m256 acc = _mm256_loadu_ps(out_row + j0);
    for (int64_t p = p0; p < p1; ++p) {
      __m256 v = _mm256_set1_ps(values[p]);
      const float* xr = x + col_idx[p] * d + j0;
      acc = _mm256_add_ps(acc, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
    }
    _mm256_storeu_ps(out_row + j0, acc);
  }
  if (j0 < d) {
    for (int64_t p = p0; p < p1; ++p) {
      float v = values[p];
      const float* xr = x + col_idx[p] * d;
      for (int64_t j = j0; j < d; ++j) out_row[j] += v * xr[j];
    }
  }
}

// ---- Scatter-add ------------------------------------------------------------

// Target rows in [lo, hi) only, sources applied in ascending r (same
// order as the serial reference for every target row, however [0, rows)
// is partitioned). The row add is elementwise — one IEEE add per element
// — so vector width cannot change results.
void ScatterAddRange(float* target, int64_t m, const int64_t* idx,
                     int64_t count, const float* src, int64_t lo,
                     int64_t hi) {
  for (int64_t r = 0; r < count; ++r) {
    int64_t dst = idx[r];
    if (dst < lo || dst >= hi) continue;
    const float* srow = src + r * m;
    float* trow = target + dst * m;
    int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(trow + j, _mm256_add_ps(_mm256_loadu_ps(trow + j),
                                               _mm256_loadu_ps(srow + j)));
    }
    for (; j < m; ++j) trow[j] += srow[j];
  }
}

// ---- Lane-partial reductions ------------------------------------------------

// Row dot in double via two 4-wide double accumulators. After the vector
// loop, accumulator lanes spill to lane[0..7] where lane l holds exactly
// the elements j with j % 8 == l — the association backend_kernels.h's
// scalar RowDotOne is specified to compute — then tail elements and the
// ascending lane combine proceed identically to the scalar reference.
double LaneDot(const float* a_row, const float* b_row, int64_t m) {
  static_assert(kReduceLanes == 8,
                "two 4-wide double accumulators per 8-float group");
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  int64_t j = 0;
  for (; j + 8 <= m; j += 8) {
    __m256 av = _mm256_loadu_ps(a_row + j);
    __m256 bv = _mm256_loadu_ps(b_row + j);
    __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(av));
    __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1));
    __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(bv));
    __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(a_lo, b_lo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(a_hi, b_hi));
  }
  double lane[kReduceLanes];
  _mm256_storeu_pd(lane, lo);
  _mm256_storeu_pd(lane + 4, hi);
  for (int64_t l = 0; j + l < m; ++l) {
    lane[l] += static_cast<double>(a_row[j + l]) * b_row[j + l];
  }
  double acc = 0.0;
  for (int64_t l = 0; l < kReduceLanes; ++l) acc += lane[l];
  return acc;
}

// ChunkSum twin: identical shape to LaneDot without the multiply.
double LaneSum(const float* in, int64_t begin, int64_t end) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    __m256 v = _mm256_loadu_ps(in + i);
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double lane[kReduceLanes];
  _mm256_storeu_pd(lane, lo);
  _mm256_storeu_pd(lane + 4, hi);
  for (int64_t l = 0; i + l < end; ++l) {
    lane[l] += static_cast<double>(in[i + l]);
  }
  double acc = 0.0;
  for (int64_t l = 0; l < kReduceLanes; ++l) acc += lane[l];
  return acc;
}

// ---- Int8 code scan ---------------------------------------------------------

// One quantized code dot, 32 codes per iteration. maddubs needs one
// unsigned operand, so compute |q| (u8) against sign(c, q): pairwise int16
// sums of u8*i8 products. QuantizeRowI8 clamps codes to [-127, 127], so a
// pair is at most 2 * 127 * 127 = 32258 < 32767 — no int16 saturation —
// and madd against ones widens to int32 exactly. Integer addition is
// associative, so the 8-lane reduction equals the serial quant::I8Dot for
// any lane order. (A -128 code would break both the abs and the
// saturation bound; backend.h documents the precondition.)
int32_t I8DotAvx2(const int8_t* q, const int8_t* c, int64_t m) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  int64_t j = 0;
  for (; j + 32 <= m; j += 32) {
    __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
    __m256i cv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j));
    __m256i pairs =
        _mm256_maddubs_epi16(_mm256_abs_epi8(qv), _mm256_sign_epi8(cv, qv));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t total = _mm_cvtsi128_si32(s);
  for (; j < m; ++j) {
    total += static_cast<int32_t>(q[j]) * static_cast<int32_t>(c[j]);
  }
  return total;
}

// ---- Eltwise twins ----------------------------------------------------------
// Internal-linkage copies of the element_ops.h bodies, generated from the
// same X-macro expressions, compiled in this TU so the autovectorizer may
// emit AVX2 for them. Per-element single expressions with no accumulation:
// bit-identical to the portable copies under -ffp-contract=off whether or
// not a given loop vectorizes.

#define GNMR_SIMD_MAP_TWIN(name, expr)                                  \
  void name##MapTwin(const float* in, float* out, int64_t n, float p) { \
    (void)p;                                                            \
    for (int64_t i = 0; i < n; ++i) {                                   \
      float x = in[i];                                                  \
      out[i] = (expr);                                                  \
    }                                                                   \
  }
GNMR_ELTWISE_MAP_BODIES(GNMR_SIMD_MAP_TWIN)
#undef GNMR_SIMD_MAP_TWIN

#define GNMR_SIMD_ZIP_TWIN(name, expr)                                       \
  void name##ZipTwin(const float* a, const float* b, float* out, int64_t n,  \
                     float p) {                                              \
    (void)p;                                                                 \
    for (int64_t i = 0; i < n; ++i) {                                        \
      float x = a[i];                                                        \
      float y = b[i];                                                        \
      out[i] = (expr);                                                       \
    }                                                                        \
  }
GNMR_ELTWISE_ZIP_BODIES(GNMR_SIMD_ZIP_TWIN)
#undef GNMR_SIMD_ZIP_TWIN

// Twin tables in X-macro list order — index-aligned with the key tables
// backend.cc builds from the same lists.
constexpr KernelBackend::MapFn kMapTwins[] = {
#define GNMR_SIMD_MAP_ENTRY(name, expr) &name##MapTwin,
    GNMR_ELTWISE_MAP_BODIES(GNMR_SIMD_MAP_ENTRY)
#undef GNMR_SIMD_MAP_ENTRY
};
constexpr KernelBackend::ZipFn kZipTwins[] = {
#define GNMR_SIMD_ZIP_ENTRY(name, expr) &name##ZipTwin,
    GNMR_ELTWISE_ZIP_BODIES(GNMR_SIMD_ZIP_ENTRY)
#undef GNMR_SIMD_ZIP_ENTRY
};
constexpr int kNumMapTwins =
    static_cast<int>(sizeof(kMapTwins) / sizeof(kMapTwins[0]));
constexpr int kNumZipTwins =
    static_cast<int>(sizeof(kZipTwins) / sizeof(kZipTwins[0]));

// ---- Range entry points -----------------------------------------------------
// The RangeKernels signatures (backend_simd.h) over the kernels above. The
// shard pool hands each range to one worker; the serving scans run whole
// on the calling thread.

// Full row tiles from i0, then the scalar rows of the ragged tail. The
// caller cuts ranges on row-tile boundaries, so only the last range of a
// matrix has a tail.
void MatMulRows(const float* a, const float* b, float* out, int64_t k,
                int64_t m, int64_t i0, int64_t i1) {
  const bool use512 = g_avx512_tiles.load(std::memory_order_relaxed) &&
                      util::HostCpuFeatures().avx512f;
  int64_t i = i0;
  for (; i + kSimdMatMulRowTile <= i1; i += kSimdMatMulRowTile) {
    MatMulRowTile(a, b, out, i, k, m, use512);
  }
  if (i < i1) ScalarMatMulRows(a, b, out, i, i1, k, m, 0, m);
}

void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
              const float* values, const float* x, float* out, int64_t d,
              int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    SpmmRowSimd(row_ptr, col_idx, values, x, out + i * d, i, d);
  }
}

void GatherRows(const float* a, int64_t m, const int64_t* idx, float* out,
                int64_t lo, int64_t hi) {
  for (int64_t r = lo; r < hi; ++r) {
    std::memcpy(out + r * m, a + idx[r] * m,
                static_cast<size_t>(m) * sizeof(float));
  }
}

void RowDotRows(const float* a, const float* b, float* out, int64_t m,
                int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    out[i] = static_cast<float>(LaneDot(a + i * m, b + i * m, m));
  }
}

void QueryDot(const float* q, const float* rows, float* out, int64_t n,
              int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(LaneDot(q, rows + i * m, m));
  }
}

void QueryDotIndexed(const float* q, const float* base, const int64_t* idx,
                     float* out, int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(LaneDot(q, base + idx[i] * m, m));
  }
}

void I8QueryDot(const int8_t* q, const int8_t* codes, int32_t* out,
                int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = I8DotAvx2(q, codes + i * m, m);
  }
}

constexpr RangeKernels kSimdKernels = {
    &MatMulRows, &SpmmRows,   &GatherRows,      &ScatterAddRange,
    &RowDotRows, &LaneSum,    &QueryDot,        &QueryDotIndexed,
    &I8QueryDot, kMapTwins,   kNumMapTwins,     kZipTwins,
    kNumZipTwins,
};

}  // namespace

const RangeKernels* NativeSimdKernels() { return &kSimdKernels; }

void SetSimdAvx512TilesEnabledForTest(bool enabled) {
  g_avx512_tiles.store(enabled, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace tensor
}  // namespace gnmr

#else  // !(__AVX2__ && __FMA__ && __x86_64__)

// Non-x86 target or the per-TU vector flags were not applied: no vector
// table; the sharded backend runs the serial kernels.

namespace gnmr {
namespace tensor {
namespace simd {

const RangeKernels* NativeSimdKernels() { return nullptr; }

void SetSimdAvx512TilesEnabledForTest(bool /*enabled*/) {}

}  // namespace simd
}  // namespace tensor
}  // namespace gnmr

#endif
