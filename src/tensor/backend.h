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
// One concrete class, three instances. A KernelBackend is a RangeKernels
// table (backend_simd.h) run under a shard cap: every op cuts its row (or
// chunk) dimension into at most `shard_cap` ranges and runs one table entry
// per range. The cap is data, so every instance goes through the same
// dispatch code:
//   "sharded" — the default: the cpuid-picked table (the hand-vectorized
//               AVX2 kernels of backend_simd.cc when util/cpu_features.h
//               reports AVX2+FMA, the serial bodies otherwise) cut by
//               shard_plan.h over the persistent std::thread pool of
//               shard_pool.h, sized by GNMR_SHARD_WORKERS /
//               SetShardWorkers. The serving scans run on the calling
//               thread.
//   "serial"  — the serial reference table (backend_kernels.h) with cap 1:
//               each op runs as one inline range on the calling thread and
//               never touches the shard pool.
//   ShardedSerialKernelsForTest() — the serial table on the pool, which is
//               what "sharded" runs on hosts without AVX2+FMA.
// The vector kernels keep the serial per-element accumulation order with
// unfused mul+add, and a range boundary never splits an output element, so
// all three are bit-identical at any worker count.
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

struct RangeKernels;  // backend_simd.h

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

/// The hot-path kernels: one RangeKernels table under a shard cap.
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

  /// Runs `kernels` cut into at most `shard_cap` ranges per op. A cap of 1
  /// runs every op as one inline range and never touches the shard pool;
  /// kUncappedShards cuts up to the pool's worker count.
  constexpr KernelBackend(const char* name, const RangeKernels& kernels,
                          int64_t shard_cap)
      : name_(name), k_(kernels), shard_cap_(shard_cap) {}
  KernelBackend(const KernelBackend&) = delete;
  KernelBackend& operator=(const KernelBackend&) = delete;

  static constexpr int64_t kUncappedShards = INT64_MAX;

  /// Registry name ("serial" or "sharded").
  const char* name() const { return name_; }

  /// The kernel table every op runs.
  const RangeKernels& range_kernels() const { return k_; }

  /// Dense [n,k] x [k,m] -> out [n,m]; out is zero-initialised.
  void MatMul(const float* a, const float* b, float* out, int64_t n, int64_t k,
              int64_t m) const;

  /// a [n,k] x b^T -> out [n,m], where b is stored [m,k] (MatMul's
  /// input-gradient shape G * B^T). Each element accumulates exactly as
  /// MatMul(a, Transpose(b)) would: ascending k, terms with a == 0
  /// skipped, unfused mul+add. out is zero-initialised.
  void MatMulTransB(const float* a, const float* b, float* out, int64_t n,
                    int64_t k, int64_t m) const;

  /// a^T x b -> out [n,m], where a is stored [k,n] and b is [k,m]
  /// (MatMul's weight-gradient shape A^T * G). Each element accumulates
  /// exactly as MatMul(Transpose(a), b) would: ascending k, terms with
  /// a == 0 skipped, unfused mul+add. out is zero-initialised.
  void MatMulTransA(const float* a, const float* b, float* out, int64_t n,
                    int64_t k, int64_t m) const;

  /// Sparse-dense product a [n,m] x x [m,d] -> out [n,d]; out zeroed.
  void Spmm(const CsrMatrix& a, const float* x, float* out, int64_t d) const;

  /// out[r, :] = a[idx[r], :]; a has `m` columns, idx has `count` entries
  /// (pre-validated by the caller).
  void GatherRows(const float* a, int64_t m, const int64_t* idx, int64_t count,
                  float* out) const;

  /// target[idx[r], :] += src[r, :] for r in [0, count), applied in
  /// ascending r order per target row (duplicates accumulate
  /// deterministically). target has `rows` x `m`.
  void ScatterAddRows(float* target, int64_t rows, int64_t m,
                      const int64_t* idx, int64_t count,
                      const float* src) const;

  /// out[i] = dot(a[i, :], b[i, :]) in double, for i in [0, n).
  void RowDot(const float* a, const float* b, float* out, int64_t n,
              int64_t m) const;

  /// Runs the map kernel over [0, n), possibly split across threads.
  void EltwiseMap(const float* in, float* out, int64_t n, MapFn f,
                  float p) const;

  /// Runs the zip kernel over [0, n), possibly split across threads.
  void EltwiseZip(const float* a, const float* b, float* out, int64_t n,
                  ZipFn f, float p) const;

  /// Sum of all elements via fixed-chunk double partials (kReduceSumChunk);
  /// bit-identical across backends and thread counts.
  double ReduceSum(const float* in, int64_t n) const;

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
  void BroadcastZip(const float* a, const float* b, float* out, int64_t n,
                    int64_t m, Broadcast kind, bool b_first, ZipFn f,
                    float p) const;

  /// out[i] = sum of row i of in [n,m] ([n,m] -> [n,1]), accumulated in
  /// float from +0.0f in ascending column order.
  void RowSums(const float* in, float* out, int64_t n, int64_t m) const;

  /// out[j] = sum of column j of in [n,m] ([n,m] -> [1,m]), accumulated in
  /// float from +0.0f in ascending row order. out is zero-initialised.
  void ColSums(const float* in, float* out, int64_t n, int64_t m) const;

  // ---- Row-independent bodies ----------------------------------------------

  /// A body that computes rows [lo, hi) of its outputs, each row from its
  /// own inputs only (no cross-row accumulation).
  using RowsFn = std::function<void(int64_t lo, int64_t hi)>;

  /// Runs `rows` over a partition of [0, n): whole on the calling thread
  /// (cap 1, or below kParallelRowsMinWork total work), else cut into row
  /// shards on the pool. `work_per_row` is the body's cost of one
  /// row in multiply-adds, which only sizes the cut. Every row is computed
  /// whole by one call of the same body, so the partition never changes a
  /// result: the fused GNMR layer ops (core/gnmr_fused_ops.h) are
  /// bit-identical across backends and worker counts by construction.
  void RunRows(int64_t n, int64_t work_per_row, const RowsFn& rows) const;

  // ---- Serving scan ops -----------------------------------------------------
  // One query row against many embedding rows — the shape of a top-N
  // retrieval scan, which RowDot (pairwise rows) does not cover. They run
  // on the calling thread under any cap: their callers are serving request
  // threads, already fanned out per request, where a pool dispatch per
  // scan would only add latency jitter.

  /// out[i] = float(LanePartialDot(q, rows + i*m, m)) for i in [0, n):
  /// `q` against n CONTIGUOUS rows.
  void QueryDot(const float* q, const float* rows, float* out, int64_t n,
                int64_t m) const;

  /// Gather flavour: out[i] = float(LanePartialDot(q, base + idx[i]*m, m)).
  /// Row indices are pre-validated by the caller.
  void QueryDotIndexed(const float* q, const float* base, const int64_t* idx,
                       float* out, int64_t n, int64_t m) const;

 private:
  /// True when an op over `n` rows costing `work` runs as one inline range:
  /// under cap 1, for a single row, or below the op's fan-out threshold.
  bool RunsInline(int64_t n, int64_t work, int64_t min_work) const {
    return shard_cap_ <= 1 || n <= 1 || work < min_work;
  }

  /// fn(lo, hi) over [0, n): inline when RunsInline, else a uniform plan of
  /// at least `min_per_shard` rows per range on the shard pool.
  template <typename Fn>
  void RunRanges(int64_t n, int64_t work, int64_t min_work,
                 int64_t min_per_shard, const Fn& fn) const;

  const char* name_;
  const RangeKernels& k_;
  int64_t shard_cap_;
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
