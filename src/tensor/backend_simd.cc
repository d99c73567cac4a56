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
//   - MatMul and its transposed forms: a register tile covers up to
//     kSimdMatMulRowTile output rows x 8/16/32 columns and sweeps the k
//     range ascending; each output element sees the same ascending-k
//     mul+add chain as MatMulRow, including its zero-skip (a per-row-tile
//     zero scan picks a guarded tile kernel when needed, so 0 * inf can
//     never poison a row). A^T x B reads A through swapped strides;
//     A x B^T packs B^T panels first and may split k into blocks, which
//     only stores and reloads the float accumulators in between.
//   - RowSums / ColSums: one lane per output element, each lane the
//     serial ascending float chain from +0.0f.
//   - SpMM: column panels re-walk a row's nonzeros once per panel; each
//     output element still accumulates in ascending entry order.
//   - RowDot / ReduceSum / QueryDot(Indexed): the kReduceLanes=8
//     lane-partial association (backend.h LanePartialDot — never odr-used
//     here, see rule 1) IS what two 4-wide double accumulators compute, so
//     the vector loop reproduces the scalar reference bit-for-bit by
//     construction.
//   - EltwiseMap/Zip: per-element single-expression bodies have no
//     accumulation to reorder; the twins here are generated from the same
//     X-macro expressions as the portable copies (element_ops.h) and are
//     bit-identical under -ffp-contract=off, just compiled where the
//     autovectorizer may use AVX2.
#include "src/tensor/backend_simd.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__x86_64__)

#include <immintrin.h>

#include <atomic>
#include <climits>
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

// Local min: std::min would be a COMDAT template instantiated here with
// AVX2 encodings (rule 1).
int64_t MinI(int64_t x, int64_t y) { return x < y ? x : y; }

// ---- MatMul -----------------------------------------------------------------
// One set of register tiles serves the three MatMul layouts. A tile reads
// its left operand through two strides — element (r, kk) sits at
// a[r * ars + kk * aks] — so A (ars = k, aks = 1) and a transposed A
// (ars = 1, aks = n) share the code, and its right operand as row kk at
// b + kk * ldb, which is either B itself or a packed panel of B^T.

// True if any of `count` floats starting at `p` is (+/-)0.0f. One row
// tile's slice of a row-major A is contiguous (rows x k), so MatMul scans
// it once per row tile to choose between the branch-free and the guarded
// tile kernels below.
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

// AnyZero over `rows` adjacent columns of a row-major [k, ld] matrix: the
// tile slice of a transposed left operand.
bool AnyZeroCols(const float* p, int64_t ld, int64_t rows, int64_t k) {
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t r = 0; r < rows; ++r) {
      if (p[kk * ld + r] == 0.0f) return true;
    }
  }
  return false;
}

// Operands of one register tile (see the section comment).
struct TileArgs {
  const float* a;
  int64_t ars;
  int64_t aks;
  const float* b;
  int64_t ldb;
  float* out;
  int64_t ldo;
  int64_t k;
};

// Serial-order rows around the register tiles: `rows` output rows of
// `cols` columns, right-operand element (kk, j) at b[kk * bks + j * bjs].
// Identical loop structure (and zero-skip) to the serial MatMulRow, so
// tail elements match the reference exactly.
void ScalarTile(const TileArgs& t, int64_t bks, int64_t bjs, int64_t rows,
                int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    float* out_row = t.out + r * t.ldo;
    for (int64_t kk = 0; kk < t.k; ++kk) {
      float av = t.a[r * t.ars + kk * t.aks];
      if (av == 0.0f) continue;
      const float* brow = t.b + kk * bks;
      for (int64_t j = 0; j < cols; ++j) out_row[j] += av * brow[j * bjs];
    }
  }
}

// R x (8 * V) register tile, ascending k, unfused mul+add. The plain form
// is valid only when the tile's slice of A holds no zeros (AnyZero /
// AnyZeroCols), since it drops the serial reference's zero-skip. The
// guarded form reproduces the skip without a branch (after a ReLU, zeros
// are too frequent and too irregular to predict): it computes every term
// and keeps the old accumulator wherever a == 0 (an exact select, so a
// skipped 0 * inf never reaches the sum, and a NaN a is added as the
// serial loop adds it).
template <int R, int V, bool kGuarded>
void TileAvx2(const TileArgs& t) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm256_loadu_ps(t.out + r * t.ldo + 8 * v);
    }
  }
  for (int64_t kk = 0; kk < t.k; ++kk) {
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_loadu_ps(t.b + kk * t.ldb + 8 * v);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 avv = _mm256_set1_ps(t.a[r * t.ars + kk * t.aks]);
      if (kGuarded) {
        const __m256 skip =
            _mm256_cmp_ps(avv, _mm256_setzero_ps(), _CMP_EQ_OQ);
        for (int v = 0; v < V; ++v) {
          const __m256 sum =
              _mm256_add_ps(acc[r][v], _mm256_mul_ps(avv, bv[v]));
          acc[r][v] = _mm256_blendv_ps(sum, acc[r][v], skip);
        }
      } else {
        for (int v = 0; v < V; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(avv, bv[v]));
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(t.out + r * t.ldo + 8 * v, acc[r][v]);
    }
  }
}

// R x 32 tiles for AVX-512 hosts: with mul+add kept unfused (FMA would
// change rounding), AVX2 peaks around 3x serial on current cores; the
// 2x-wider zmm tile is what clears the >=4x target. Runtime-dispatched on
// cpuid avx512f — these are the only AVX-512 code in the binary.
template <int R, bool kGuarded>
__attribute__((target("avx512f"))) void Tile512(const TileArgs& t) {
  __m512 acc[R][2];
  for (int r = 0; r < R; ++r) {
    acc[r][0] = _mm512_loadu_ps(t.out + r * t.ldo);
    acc[r][1] = _mm512_loadu_ps(t.out + r * t.ldo + 16);
  }
  for (int64_t kk = 0; kk < t.k; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(t.b + kk * t.ldb);
    const __m512 b1 = _mm512_loadu_ps(t.b + kk * t.ldb + 16);
    for (int r = 0; r < R; ++r) {
      const __m512 avv = _mm512_set1_ps(t.a[r * t.ars + kk * t.aks]);
      if (kGuarded) {
        // Masked add: lanes stay put where a == 0 (NaN compares unequal
        // and is added, as in the serial loop).
        const __mmask16 add =
            _mm512_cmp_ps_mask(avv, _mm512_setzero_ps(), _CMP_NEQ_UQ);
        acc[r][0] = _mm512_mask_add_ps(acc[r][0], add, acc[r][0],
                                       _mm512_mul_ps(avv, b0));
        acc[r][1] = _mm512_mask_add_ps(acc[r][1], add, acc[r][1],
                                       _mm512_mul_ps(avv, b1));
      } else {
        acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(avv, b0));
        acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(avv, b1));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_storeu_ps(t.out + r * t.ldo, acc[r][0]);
    _mm512_storeu_ps(t.out + r * t.ldo + 16, acc[r][1]);
  }
}

// One register tile of `width` (8, 16 or 32) columns.
template <int R>
void TileOfWidth(int64_t width, bool zeros, const TileArgs& t) {
  if (width == 32) {
    zeros ? Tile512<R, true>(t) : Tile512<R, false>(t);
  } else if (width == 16) {
    zeros ? TileAvx2<R, 2, true>(t) : TileAvx2<R, 2, false>(t);
  } else {
    zeros ? TileAvx2<R, 1, true>(t) : TileAvx2<R, 1, false>(t);
  }
}

// Runtime row count (1..kRT) to its tile instantiation, so a ragged last
// row tile still runs vectorized.
void Tile(int64_t rows, int64_t width, bool zeros, const TileArgs& t) {
  static_assert(kSimdMatMulRowTile == 6, "one case per tile row count");
  switch (rows) {
    case 1: TileOfWidth<1>(width, zeros, t); break;
    case 2: TileOfWidth<2>(width, zeros, t); break;
    case 3: TileOfWidth<3>(width, zeros, t); break;
    case 4: TileOfWidth<4>(width, zeros, t); break;
    case 5: TileOfWidth<5>(width, zeros, t); break;
    default: TileOfWidth<6>(width, zeros, t); break;
  }
}

bool UseAvx512Tiles() {
  return g_avx512_tiles.load(std::memory_order_relaxed) &&
         util::HostCpuFeatures().avx512f;
}

// One row tile over all m columns of a row-major right operand: 32-wide
// tiles (AVX-512 hosts), 16-wide, one 8-wide, then the scalar column tail.
// Each output element is computed by exactly one kernel over the full k
// range.
void RowTile(int64_t rows, bool zeros, bool use512, TileArgs t, int64_t m) {
  const float* b = t.b;
  float* out = t.out;
  int64_t j0 = 0;
  auto step = [&](int64_t width) {
    t.b = b + j0;
    t.out = out + j0;
    Tile(rows, width, zeros, t);
    j0 += width;
  };
  if (use512) {
    while (j0 + kCT5 <= m) step(kCT5);
  }
  while (j0 + kCT2 <= m) step(kCT2);
  if (j0 + 8 <= m) step(8);
  if (j0 < m) {
    t.b = b + j0;
    t.out = out + j0;
    ScalarTile(t, t.ldb, 1, rows, m - j0);
  }
}

// ---- SpMM -------------------------------------------------------------------

// One output row, column-paneled: up to 4 ymm accumulators per panel,
// re-walking the row's nonzeros (ascending, like the serial SpmmRowRaw) once
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

// Source rows in ascending order, the serial order. The row add is
// elementwise — one IEEE add per element — so vector width cannot change
// results.
void ScatterAddList(float* target, int64_t m, const int64_t* idx,
                    int64_t count, const float* src) {
  for (int64_t r = 0; r < count; ++r) {
    const float* srow = src + r * m;
    float* trow = target + idx[r] * m;
    int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(trow + j, _mm256_add_ps(_mm256_loadu_ps(trow + j),
                                               _mm256_loadu_ps(srow + j)));
    }
    for (; j < m; ++j) trow[j] += srow[j];
  }
}

// ---- Broadcast reductions ---------------------------------------------------

// Row sums, 8 rows per vector: lane r gathers row r's elements in
// ascending column order, so each lane is the serial float chain from
// +0.0f. Two 8-row groups run interleaved to hide the add latency.
void RowSumsRange(const float* in, float* out, int64_t m, int64_t lo,
                  int64_t hi) {
  int64_t i = lo;
  if (m <= INT32_MAX / 16) {
    const __m256i offs = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int32_t>(m)));
    for (; i + 16 <= hi; i += 16) {
      const float* base0 = in + i * m;
      const float* base1 = base0 + 8 * m;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t j = 0; j < m; ++j) {
        acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(base0 + j, offs, 4));
        acc1 = _mm256_add_ps(acc1, _mm256_i32gather_ps(base1 + j, offs, 4));
      }
      _mm256_storeu_ps(out + i, acc0);
      _mm256_storeu_ps(out + i + 8, acc1);
    }
    for (; i + 8 <= hi; i += 8) {
      const float* base = in + i * m;
      __m256 acc = _mm256_setzero_ps();
      for (int64_t j = 0; j < m; ++j) {
        acc = _mm256_add_ps(acc, _mm256_i32gather_ps(base + j, offs, 4));
      }
      _mm256_storeu_ps(out + i, acc);
    }
  }
  for (; i < hi; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < m; ++j) acc += in[i * m + j];
    out[i] = acc;
  }
}

// Column sums: register accumulators per 8-column group, rows added in
// ascending order — the serial per-element chain.
void ColSumsRange(const float* in, float* out, int64_t n, int64_t m) {
  int64_t j = 0;
  for (; j + 32 <= m; j += 32) {
    __m256 acc0 = _mm256_loadu_ps(out + j);
    __m256 acc1 = _mm256_loadu_ps(out + j + 8);
    __m256 acc2 = _mm256_loadu_ps(out + j + 16);
    __m256 acc3 = _mm256_loadu_ps(out + j + 24);
    for (int64_t i = 0; i < n; ++i) {
      const float* row = in + i * m + j;
      acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(row));
      acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(row + 8));
      acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(row + 16));
      acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(row + 24));
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + 8, acc1);
    _mm256_storeu_ps(out + j + 16, acc2);
    _mm256_storeu_ps(out + j + 24, acc3);
  }
  for (; j + 8 <= m; j += 8) {
    __m256 acc = _mm256_loadu_ps(out + j);
    for (int64_t i = 0; i < n; ++i) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(in + i * m + j));
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < m; ++j) {
    float acc = out[j];
    for (int64_t i = 0; i < n; ++i) acc += in[i * m + j];
    out[j] = acc;
  }
}

// ---- Lane-partial reductions ------------------------------------------------

// Row dot in double via two 4-wide double accumulators. After the vector
// loop, accumulator lanes spill to lane[0..7] where lane l holds exactly
// the elements j with j % 8 == l — the association backend.h's
// scalar LanePartialDot is specified to compute — then tail elements and the
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

// Row tiles from i0; only the last range of a matrix ends in a short tile
// (the caller cuts ranges on row-tile boundaries).
void MatMulRows(const float* a, const float* b, float* out, int64_t k,
                int64_t m, int64_t i0, int64_t i1) {
  const bool use512 = UseAvx512Tiles();
  for (int64_t i = i0; i < i1; i += kRT) {
    const int64_t rows = MinI(kRT, i1 - i);
    RowTile(rows, AnyZero(a + i * k, rows * k), use512,
            {a + i * k, k, 1, b, m, out + i * m, m, k}, m);
  }
}

// a^T x b: output row i is column i of a, so a tile reads a with the
// strides swapped (ars = 1, aks = n).
void MatMulTransARows(const float* a, const float* b, float* out, int64_t n,
                      int64_t k, int64_t m, int64_t i0, int64_t i1) {
  const bool use512 = UseAvx512Tiles();
  for (int64_t i = i0; i < i1; i += kRT) {
    const int64_t rows = MinI(kRT, i1 - i);
    RowTile(rows, AnyZeroCols(a + i, n, rows, k), use512,
            {a + i, 1, n, b, m, out + i * m, m, k}, m);
  }
}

// a x b^T with b stored [m,k]: each 32/16/8-column panel of b^T is packed
// into a contiguous [depth, width] stack buffer, kPanelDepth rows of k at
// a time, and the row tiles run against it as against a row-major B. The
// packing copies values only, and cutting k into blocks only stores and
// reloads each float accumulator between blocks, so every element still
// sees one ascending-k chain. The column tail reads b in place.
void MatMulTransBRows(const float* a, const float* b, float* out, int64_t k,
                      int64_t m, int64_t i0, int64_t i1) {
  constexpr int64_t kPanelDepth = 256;
  alignas(64) float panel[kPanelDepth * kCT5];
  const bool use512 = UseAvx512Tiles();
  int64_t j0 = 0;
  auto pass = [&](int64_t width) {
    for (int64_t k0 = 0; k0 < k; k0 += kPanelDepth) {
      const int64_t depth = MinI(kPanelDepth, k - k0);
      for (int64_t c = 0; c < width; ++c) {
        const float* bcol = b + (j0 + c) * k + k0;
        for (int64_t kk = 0; kk < depth; ++kk) panel[kk * width + c] = bcol[kk];
      }
      for (int64_t i = i0; i < i1; i += kRT) {
        const int64_t rows = MinI(kRT, i1 - i);
        bool zeros = false;
        for (int64_t r = 0; r < rows && !zeros; ++r) {
          zeros = AnyZero(a + (i + r) * k + k0, depth);
        }
        Tile(rows, width, zeros,
             {a + i * k + k0, k, 1, panel, width, out + i * m + j0, m, depth});
      }
    }
    j0 += width;
  };
  if (use512) {
    while (j0 + kCT5 <= m) pass(kCT5);
  }
  while (j0 + kCT2 <= m) pass(kCT2);
  if (j0 + 8 <= m) pass(8);
  if (j0 < m) {
    for (int64_t i = i0; i < i1; i += kRT) {
      ScalarTile({a + i * k, k, 1, b + j0 * k, 0, out + i * m + j0, m, k}, 1,
                 k, MinI(kRT, i1 - i), m - j0);
    }
  }
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

constexpr RangeKernels kSimdKernels = {
    &MatMulRows,     &MatMulTransBRows, &MatMulTransARows,
    &SpmmRows,       &GatherRows,       &ScatterAddList,
    &RowDotRows,     &LaneSum,          &RowSumsRange,
    &ColSumsRange,   &QueryDot,         &QueryDotIndexed,
    kMapTwins,       kNumMapTwins,      kZipTwins,
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
