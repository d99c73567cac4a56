// Kernel backends for the compute hot path. tensor::ops (dense) and
// tensor::ops::Spmm (sparse) dispatch every hot kernel — MatMul and its
// two transposed-operand forms (the MatMul backward), SpMM, GatherRows,
// ScatterAddRows, RowDot, elementwise map/zip, the rank-2 broadcast zips
// with their row/column sums, and the scalar reduction — through the
// active KernelBackend, so swapping the execution strategy never touches
// the call sites. The serving read path dispatches
// here too: QueryDot / QueryDotIndexed are the one-query-against-many-rows
// scans behind ExactRetriever and the HNSW builder. RunRows hands out row
// ranges for caller-written row bodies, the per-row kernels of the fused
// GNMR layer ops.
//
// Registered backends:
//   "sharded" — the default: row-range partitioning (shard_plan.h) over
//               a persistent std::thread worker pool (shard_pool.h), sized
//               by GNMR_SHARD_WORKERS / SetShardWorkers. Each range runs the
//               hand-vectorized AVX2 kernels of backend_simd.cc when the
//               runtime cpuid probe (util/cpu_features.h) reports
//               AVX2+FMA, and the serial bodies otherwise. The vector
//               kernels keep serial's per-element accumulation order with
//               unfused mul+add, so "sharded" is bit-identical to "serial"
//               at any worker count on either kernel set. The serving scans
//               run on the calling thread.
//   "serial"  — straight-line loops on the calling thread; the bit-exact
//               reference (backend_kernels.h) every "sharded" kernel is
//               tested against.
//
// Selection: SetBackend()/ScopedBackend at runtime, or the GNMR_BACKEND
// environment variable read on first use (examples/gnmr_serve also maps a
// --backend= flag onto SetBackend). Default: "sharded"; GNMR_BACKEND=
// serial runs the reference. An unknown name aborts with the list of
// registered backends.
//
// Contract: all kernels are pure (no hidden state), write into
// caller-allocated zero-initialised outputs, and must accumulate each
// output element in the same order as the serial reference, so results are
// bit-identical across backends and worker counts (ReduceSum re-associates
// across fixed chunks — see kReduceSumChunk — identically in every
// backend). Bounds checking happens in the ops layer before dispatch.
#ifndef GNMR_TENSOR_BACKEND_H_
#define GNMR_TENSOR_BACKEND_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/tensor/kernel_tunables.h"
#include "src/tensor/sparse.h"

namespace gnmr {
namespace tensor {

/// Portable scalar reference of the fixed lane-partial dot product — THE
/// serving-score contract: lane l accumulates elements j with
/// j % kReduceLanes == l in double, lanes combine in ascending order. The
/// lane shape (not plain left-to-right accumulation) is exactly the
/// association a vector unit computes with the row cut into
/// kReduceLanes-wide groups, so the vector kernels can run query scans
/// while every backend — and every scalar score call site
/// (ServingModel::Score, serve::DotScore) — produces bit-identical floats.
/// backend_simd.cc must NOT odr-use this function (see the ODR rules in
/// its header comment); its internal-linkage LaneDot computes the identical
/// association with two 4-wide double vectors.
inline double LanePartialDot(const float* a, const float* b, int64_t m) {
  double lane[kReduceLanes] = {0.0};
  int64_t j = 0;
  for (; j + kReduceLanes <= m; j += kReduceLanes) {
    for (int64_t l = 0; l < kReduceLanes; ++l) {
      lane[l] += static_cast<double>(a[j + l]) * b[j + l];
    }
  }
  for (int64_t l = 0; j + l < m; ++l) {
    lane[l] += static_cast<double>(a[j + l]) * b[j + l];
  }
  double acc = 0.0;
  for (int64_t l = 0; l < kReduceLanes; ++l) acc += lane[l];
  return acc;
}

/// Strategy interface over the raw hot-path kernels.
class KernelBackend {
 public:
  /// Elementwise map kernel over a contiguous range: out[i] = f(in[i], p)
  /// for i in [0, n). `p` carries the op's scalar parameter (AddScalar's
  /// addend, LeakyRelu's slope, ...), 0 when unused. The granularity is a
  /// *range*, not an element: backends split [0, n) and make one indirect
  /// call per chunk, while the ops layer instantiates the pointed-to loop
  /// from a template (tensor_ops.cc MapLoop/ZipLoop) so the per-element
  /// body stays fully inlined and vectorised.
  using MapFn = void (*)(const float* in, float* out, int64_t n, float p);
  /// Elementwise zip kernel: out[i] = f(a[i], b[i], p) for i in [0, n).
  using ZipFn = void (*)(const float* a, const float* b, float* out,
                         int64_t n, float p);

  virtual ~KernelBackend() = default;

  /// Registry name ("serial" or "sharded").
  virtual const char* name() const = 0;

  /// Dense [n,k] x [k,m] -> out [n,m]; out is zero-initialised.
  virtual void MatMul(const float* a, const float* b, float* out, int64_t n,
                      int64_t k, int64_t m) const = 0;

  /// a [n,k] x b^T -> out [n,m], where b is stored [m,k] (MatMul's
  /// input-gradient shape G * B^T). Each element accumulates exactly as
  /// MatMul(a, Transpose(b)) would: ascending k, terms with a == 0
  /// skipped, unfused mul+add. out is zero-initialised.
  virtual void MatMulTransB(const float* a, const float* b, float* out,
                            int64_t n, int64_t k, int64_t m) const = 0;

  /// a^T x b -> out [n,m], where a is stored [k,n] and b is [k,m]
  /// (MatMul's weight-gradient shape A^T * G). Each element accumulates
  /// exactly as MatMul(Transpose(a), b) would: ascending k, terms with
  /// a == 0 skipped, unfused mul+add. out is zero-initialised.
  virtual void MatMulTransA(const float* a, const float* b, float* out,
                            int64_t n, int64_t k, int64_t m) const = 0;

  /// Sparse-dense product a [n,m] x x [m,d] -> out [n,d]; out zeroed.
  virtual void Spmm(const CsrMatrix& a, const float* x, float* out,
                    int64_t d) const = 0;

  /// out[r, :] = a[idx[r], :]; a has `m` columns, idx has `count` entries
  /// (pre-validated by the caller).
  virtual void GatherRows(const float* a, int64_t m, const int64_t* idx,
                          int64_t count, float* out) const = 0;

  /// target[idx[r], :] += src[r, :] for r in [0, count), applied in
  /// ascending r order per target row (duplicates accumulate
  /// deterministically). target has `rows` x `m`.
  virtual void ScatterAddRows(float* target, int64_t rows, int64_t m,
                              const int64_t* idx, int64_t count,
                              const float* src) const = 0;

  /// out[i] = dot(a[i, :], b[i, :]) in double, for i in [0, n).
  virtual void RowDot(const float* a, const float* b, float* out, int64_t n,
                      int64_t m) const = 0;

  /// Runs the map kernel over [0, n), possibly split across threads.
  virtual void EltwiseMap(const float* in, float* out, int64_t n, MapFn f,
                          float p) const = 0;

  /// Runs the zip kernel over [0, n), possibly split across threads.
  virtual void EltwiseZip(const float* a, const float* b, float* out,
                          int64_t n, ZipFn f, float p) const = 0;

  /// Sum of all elements via fixed-chunk double partials (kReduceSumChunk);
  /// bit-identical across backends and thread counts.
  virtual double ReduceSum(const float* in, int64_t n) const = 0;

  // ---- Rank-2 broadcasts and their reductions -------------------------------
  // The shapes of bias rows and per-row gates: one [n,m] operand against a
  // [n,1] column (kCol) or a [1,m] row (kRow), and the reductions that
  // bring a gradient back to those shapes.

  /// Which dimension of a broadcast operand has size 1.
  enum class Broadcast {
    kCol,  ///< [n,1]: b[i] applies to all of row i.
    kRow,  ///< [1,m]: b[j] applies to column j of every row.
  };

  /// out[i,j] = f(a[i,j], bb, p), or f(bb, a[i,j], p) when `b_first`,
  /// where bb = b[i] (kCol) or b[j] (kRow) and a is [n,m]. `out` may alias
  /// `a` (in-place update). Per-element, so no order to keep.
  virtual void BroadcastZip(const float* a, const float* b, float* out,
                            int64_t n, int64_t m, Broadcast kind,
                            bool b_first, ZipFn f, float p) const = 0;

  /// out[i] = sum of row i of in [n,m] ([n,m] -> [n,1]), accumulated in
  /// float from +0.0f in ascending column order.
  virtual void RowSums(const float* in, float* out, int64_t n,
                       int64_t m) const = 0;

  /// out[j] = sum of column j of in [n,m] ([n,m] -> [1,m]), accumulated in
  /// float from +0.0f in ascending row order. out is zero-initialised.
  virtual void ColSums(const float* in, float* out, int64_t n,
                       int64_t m) const = 0;

  // ---- Row-independent bodies ----------------------------------------------

  /// A body that computes rows [lo, hi) of its outputs, each row from its
  /// own inputs only (no cross-row accumulation).
  using RowsFn = std::function<void(int64_t lo, int64_t hi)>;

  /// Runs `rows` over a partition of [0, n): whole on the calling thread
  /// (serial, and sharded below kParallelRowsMinWork total work), else cut
  /// into row shards on the pool. `work_per_row` is the body's cost of one
  /// row in multiply-adds, which only sizes the cut. Every row is computed
  /// whole by one call of the same body, so the partition never changes a
  /// result: the fused GNMR layer ops (core/gnmr_fused_ops.h) are
  /// bit-identical across backends and worker counts by construction.
  virtual void RunRows(int64_t n, int64_t work_per_row,
                       const RowsFn& rows) const = 0;

  // ---- Serving scan ops -----------------------------------------------------
  // One query row against many embedding rows — the shape of a top-N
  // retrieval scan, which RowDot (pairwise rows) does not cover. These have
  // serial base implementations (the lane-partial / integer references), so
  // a backend only overrides what it accelerates; every implementation must
  // stay bit-identical to the base (per-element output, no cross-row
  // accumulation to reorder).

  /// out[i] = float(LanePartialDot(q, rows + i*m, m)) for i in [0, n):
  /// `q` against n CONTIGUOUS rows.
  virtual void QueryDot(const float* q, const float* rows, float* out,
                        int64_t n, int64_t m) const;

  /// Gather flavour: out[i] = float(LanePartialDot(q, base + idx[i]*m, m)).
  /// Row indices are pre-validated by the caller.
  virtual void QueryDotIndexed(const float* q, const float* base,
                               const int64_t* idx, float* out, int64_t n,
                               int64_t m) const;
};

// ---- Range-kernel instantiation helpers -------------------------------------
// Element bodies are named functions passed as compile-time constants;
// these templates instantiate the MapFn/ZipFn range kernels with the body
// fully inlined and vectorised — one indirect call per range, none per
// element. Shared by tensor_ops.cc (forward ops) and ad_ops.cc (backward
// zips).

template <float (*F)(float x, float p)>
void MapLoop(const float* in, float* out, int64_t n, float p) {
  for (int64_t i = 0; i < n; ++i) out[i] = F(in[i], p);
}

template <float (*F)(float x, float y, float p)>
void ZipLoop(const float* a, const float* b, float* out, int64_t n,
             float p) {
  for (int64_t i = 0; i < n; ++i) out[i] = F(a[i], b[i], p);
}

/// The active backend (GNMR_BACKEND env or build default until SetBackend).
/// Thread-safe to call; kernels themselves are pure and may run from any
/// thread.
const KernelBackend& GetBackend();

/// Selects the active backend by name; aborts on unknown names. Intended
/// for startup/flag wiring — do not race it against in-flight kernels.
void SetBackend(const std::string& name);

/// Backend by name, or nullptr if not registered. Lets tests and benches
/// drive a specific implementation without switching the global.
const KernelBackend* FindBackend(const std::string& name);

/// All registered backends, in registration order.
const std::vector<const KernelBackend*>& AllBackends();

/// A "sharded" backend on the serial range kernels — what the registry
/// serves on hosts without AVX2+FMA. Exposed so tests cover that path on
/// any host; on supported hosts the registered instance runs the vector
/// kernels instead.
const KernelBackend* ShardedSerialKernelsForTest();

/// True when the registered "sharded" backend runs the vector range
/// kernels, false when it runs the serial ones. Lets tests check the
/// cpuid-driven table choice.
bool ShardedUsesVectorKernelsForTest();

/// RAII backend switch for tests: sets on construction, restores the
/// previous backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name);
  /// Switches to an unregistered instance such as
  /// ShardedSerialKernelsForTest().
  explicit ScopedBackend(const KernelBackend* backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_BACKEND_H_
