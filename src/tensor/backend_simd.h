// Internal glue between the portable backend registry (backend.cc) and the
// AVX2/FMA-compiled translation unit (backend_simd.cc). Include only from
// backend implementation files and tests.
//
// Every KernelBackend cuts each op into row (or chunk) ranges and runs
// each range through a RangeKernels table. Two tables exist: the serial
// reference bodies (backend_kernels.h, kSerialRangeKernels), which
// "serial" runs, and the vectorized bodies exported by backend_simd.cc
// (NativeSimdKernels). The registry picks the "sharded" table once, from
// the runtime cpuid probe.
//
// backend_simd.cc is the one TU in the build compiled with -mavx2 -mfma
// (and -ffp-contract=off, so explicit mul+add intrinsic pairs are never
// re-fused into FMAs — fusing would change rounding and break bit-parity
// with serial). Everything vector lives there behind internal linkage;
// this header only carries portable declarations, so including it never
// leaks vector code into portable TUs.
//
// The eltwise twin arrays exist because EltwiseMap/EltwiseZip receive a
// *function pointer* (an instantiated MapLoop/ZipLoop from a portable TU).
// The vector TU cannot instantiate those shared templates itself — a
// COMDAT-merged AVX2 copy could be picked by the linker and then run in the
// serial path of a non-AVX2 host — so it exports internal-linkage twins in
// element_ops.h's X-macro list order, and backend.cc (portable) matches the
// incoming pointer against its own list-ordered MapLoop/ZipLoop keys to
// pick the twin. Unknown bodies (e.g. test-local lambdas) run as given,
// which is still bit-identical — just not vectorized.
#ifndef GNMR_TENSOR_BACKEND_SIMD_H_
#define GNMR_TENSOR_BACKEND_SIMD_H_

#include <cstdint>

#include "src/tensor/backend.h"

namespace gnmr {
namespace tensor {

/// One kernel set, as plain range functions. Every entry writes only the
/// output rows (or returns the chunk) it is given, and accumulates each
/// output element in the serial reference order, so any partition of the
/// row range concatenates to the serial result bit-for-bit.
struct RangeKernels {
  /// Output rows [i0, i1) of a [n,k] x b [k,m]; `out` is the whole output.
  void (*matmul_rows)(const float* a, const float* b, float* out, int64_t k,
                      int64_t m, int64_t i0, int64_t i1);
  /// Output rows [i0, i1) of a [n,k] x b^T, b stored [m,k].
  void (*matmul_trans_b_rows)(const float* a, const float* b, float* out,
                              int64_t k, int64_t m, int64_t i0, int64_t i1);
  /// Output rows [i0, i1) of a^T x b, a stored [k,n], b [k,m].
  void (*matmul_trans_a_rows)(const float* a, const float* b, float* out,
                              int64_t n, int64_t k, int64_t m, int64_t i0,
                              int64_t i1);
  /// Output rows [i0, i1) of the CSR product A x; `out` is the whole output.
  void (*spmm_rows)(const int64_t* row_ptr, const int64_t* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t d, int64_t i0, int64_t i1);
  /// out[r, :] = a[idx[r], :] for r in [lo, hi).
  void (*gather_rows)(const float* a, int64_t m, const int64_t* idx,
                      float* out, int64_t lo, int64_t hi);
  /// target[idx[r], :] += src[r, :] for r = 0, ..., count-1 in order.
  void (*scatter_add_rows)(float* target, int64_t m, const int64_t* idx,
                           int64_t count, const float* src);
  /// out[i] = lane-partial dot(a[i, :], b[i, :]) for i in [lo, hi).
  void (*row_dot)(const float* a, const float* b, float* out, int64_t m,
                  int64_t lo, int64_t hi);
  /// Lane-partial double sum of in[begin, end) (one ReduceSum chunk).
  double (*chunk_sum)(const float* in, int64_t begin, int64_t end);
  /// out[i] = float sum of row i of in [., m], ascending columns, for i in
  /// [lo, hi).
  void (*row_sums)(const float* in, float* out, int64_t m, int64_t lo,
                   int64_t hi);
  /// out[j] += every row's in[., j] in ascending row order, in [n, m].
  void (*col_sums)(const float* in, float* out, int64_t n, int64_t m);
  /// The two serving scans, with the KernelBackend signatures.
  void (*query_dot)(const float* q, const float* rows, float* out, int64_t n,
                    int64_t m);
  void (*query_dot_indexed)(const float* q, const float* base,
                            const int64_t* idx, float* out, int64_t n,
                            int64_t m);
  /// Eltwise twins in element_ops.h X-macro list order (nullptr/0 when the
  /// table runs the given MapLoop/ZipLoop pointers unchanged).
  const KernelBackend::MapFn* map_twins;
  int num_map_twins;
  const KernelBackend::ZipFn* zip_twins;
  int num_zip_twins;
};

namespace simd {

/// The vectorized kernel table, or nullptr when backend_simd.cc was
/// compiled without AVX2 support (non-x86 target or missing per-TU flags).
/// Call it only after util::HostCpuFeatures() confirms AVX2+FMA: no code
/// from the vector TU, this accessor included, may run on other hosts.
const RangeKernels* NativeSimdKernels();

/// Test hook: when false, MatMul uses the AVX2 16-column tiles even on
/// AVX-512 hosts, so the parity suite can cover both tile paths in one
/// run. Enabling it on a host without avx512f is a no-op (the runtime
/// probe still gates the wide path). Default true.
void SetSimdAvx512TilesEnabledForTest(bool enabled);

}  // namespace simd
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_BACKEND_SIMD_H_
