#include "src/tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/tensor/backend_kernels.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_plan.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"

namespace gnmr {
namespace tensor {

namespace {

// Portable MapLoop/ZipLoop instantiations for every element_ops.h X-macro
// body, in list order — the exact function pointers tensor_ops.cc and
// ad_ops.cc pass to EltwiseMap/EltwiseZip (template instantiations
// COMDAT-merge across the portable TUs, so the addresses agree). A kernel
// table's twin arrays are index-aligned with these; see backend_simd.h for
// why the vector TU cannot instantiate the templates itself.
constexpr KernelBackend::MapFn kMapKeys[] = {
#define GNMR_MAP_KEY(name, expr) &MapLoop<&elops::name##El>,
    GNMR_ELTWISE_MAP_BODIES(GNMR_MAP_KEY)
#undef GNMR_MAP_KEY
};
constexpr KernelBackend::ZipFn kZipKeys[] = {
#define GNMR_ZIP_KEY(name, expr) &ZipLoop<&elops::name##El>,
    GNMR_ELTWISE_ZIP_BODIES(GNMR_ZIP_KEY)
#undef GNMR_ZIP_KEY
};

// The twin of `f` from `twins` (list-aligned with `keys`), or `f` itself
// for bodies without one (test lambdas, a table without twins).
template <typename Fn, size_t N>
Fn Translate(Fn f, const Fn (&keys)[N], const Fn* twins, int num_twins) {
  const size_t n = std::min(N, static_cast<size_t>(num_twins));
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] == f) return twins[i];
  }
  return f;
}

/// Dispatches fn(begin, end) once per range of `plan` to `pool`;
/// single-range plans run inline (no dispatch latency for small inputs).
template <typename Fn>
void RunPlan(ShardPool& pool, const ShardPlan& plan, const Fn& fn) {
  if (plan.num_shards() <= 1) {
    for (const ShardRange& r : plan.ranges()) fn(r.begin, r.end);
    return;
  }
  std::function<void(int64_t)> task = [&plan, &fn](int64_t s) {
    const ShardRange& r = plan.shard(s);
    fn(r.begin, r.end);
  };
  pool.Run(plan.num_shards(), task);
}

/// The three MatMul layouts are cut on register-tile boundaries, so only
/// the last range runs a short tile: the ranges count tiles, and
/// OnRowTiles maps a tile range back to output rows [0, n).
constexpr int64_t kMinTilesPerShard =
    (kShardMinRowsPerShard + kSimdMatMulRowTile - 1) / kSimdMatMulRowTile;

int64_t NumRowTiles(int64_t n) {
  return (n + kSimdMatMulRowTile - 1) / kSimdMatMulRowTile;
}

template <typename Fn>
auto OnRowTiles(int64_t n, Fn rows) {
  return [n, rows](int64_t t0, int64_t t1) {
    rows(t0 * kSimdMatMulRowTile, std::min(n, t1 * kSimdMatMulRowTile));
  };
}

/// Cached per-matrix SpMM plan: propagation re-runs the same per-behavior
/// adjacency every step, and the nnz-balanced cut only needs row_ptr, so
/// build it once and reuse while the matrix (and shard count) is
/// unchanged. Keyed by the row_ptr storage address; a stale hit after a
/// matrix is freed and another allocated in its place is detected by the
/// rows/nnz/shards fingerprint — and even an undetected collision would
/// still be a valid (merely unbalanced) partition of [0, rows). A plan
/// depends on the matrix and the shard count only, so one cache serves
/// every backend.
ShardPlan PlanForSpmm(const CsrMatrix& a, int64_t shards) {
  struct CachedPlan {
    int64_t rows = 0;
    int64_t nnz = 0;
    int64_t shards = 0;
    ShardPlan plan;
  };
  constexpr size_t kMaxCachedPlans = 64;
  static std::mutex mu;
  static std::unordered_map<const int64_t*, CachedPlan> cache;
  const int64_t* key = a.row_ptr().data();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end() && it->second.rows == a.rows() &&
        it->second.nnz == a.nnz() && it->second.shards == shards) {
      return it->second.plan;
    }
  }
  ShardPlan plan = ShardPlan::NnzBalanced(a, shards, kShardMinRowsPerShard);
  {
    std::lock_guard<std::mutex> lock(mu);
    if (cache.size() >= kMaxCachedPlans) cache.clear();
    cache[key] = {a.rows(), a.nnz(), shards, plan};
  }
  return plan;
}

}  // namespace

// ---- Dispatch ---------------------------------------------------------------
// Every op cuts its row (or chunk) dimension into ranges and runs one
// RangeKernels entry per range. Each output element is computed whole by
// one range call in the serial accumulation order, so results are
// bit-identical at any cap and worker count — including a cap of 1 or a
// 1-worker pool, where every op is one inline range — and on either table.

template <typename Fn>
void KernelBackend::RunRanges(int64_t n, int64_t work, int64_t min_work,
                              int64_t min_per_shard, const Fn& fn) const {
  if (RunsInline(n, work, min_work)) {
    fn(int64_t{0}, n);
    return;
  }
  // Plan and dispatch on ONE Global() snapshot, so a concurrent
  // SetShardWorkers can neither mismatch plan and pool nor tear the pool
  // down mid-dispatch.
  std::shared_ptr<ShardPool> pool = ShardPool::Global();
  RunPlan(*pool,
          ShardPlan::Uniform(n, std::min(pool->workers(), shard_cap_),
                             min_per_shard),
          fn);
}

void KernelBackend::MatMul(const float* a, const float* b, float* out,
                           int64_t n, int64_t k, int64_t m) const {
  RunRanges(NumRowTiles(n), n * k * m, kParallelMatMulMinWork,
            kMinTilesPerShard,
            OnRowTiles(n, [=](int64_t i0, int64_t i1) {
              k_.matmul_rows(a, b, out, k, m, i0, i1);
            }));
}

void KernelBackend::MatMulTransB(const float* a, const float* b, float* out,
                                 int64_t n, int64_t k, int64_t m) const {
  RunRanges(NumRowTiles(n), n * k * m, kParallelMatMulMinWork,
            kMinTilesPerShard,
            OnRowTiles(n, [=](int64_t i0, int64_t i1) {
              k_.matmul_trans_b_rows(a, b, out, k, m, i0, i1);
            }));
}

void KernelBackend::MatMulTransA(const float* a, const float* b, float* out,
                                 int64_t n, int64_t k, int64_t m) const {
  // The weight-gradient shape: few output rows (a weight's fan-in), each
  // a sum over the long k (batch) dimension, so one row tile per shard
  // is already plenty of work.
  RunRanges(NumRowTiles(n), n * k * m, kParallelMatMulMinWork, 1,
            OnRowTiles(n, [=](int64_t i0, int64_t i1) {
              k_.matmul_trans_a_rows(a, b, out, n, k, m, i0, i1);
            }));
}

void KernelBackend::Spmm(const CsrMatrix& a, const float* x, float* out,
                         int64_t d) const {
  const int64_t n = a.rows();
  const int64_t* row_ptr = a.row_ptr().data();
  const int64_t* col_idx = a.col_idx().data();
  const float* values = a.values().data();
  auto rows = [=](int64_t i0, int64_t i1) {
    k_.spmm_rows(row_ptr, col_idx, values, x, out, d, i0, i1);
  };
  if (RunsInline(n, a.nnz() * d, kParallelSpmmMinWork)) {
    rows(0, n);
    return;
  }
  // Nnz-balanced rather than uniform: power-law degree skew would
  // otherwise serialize the shard holding the heavy users.
  std::shared_ptr<ShardPool> pool = ShardPool::Global();
  RunPlan(*pool, PlanForSpmm(a, std::min(pool->workers(), shard_cap_)), rows);
}

void KernelBackend::GatherRows(const float* a, int64_t m, const int64_t* idx,
                               int64_t count, float* out) const {
  RunRanges(count, count * m, kParallelRowsMinWork, kShardMinRowsPerShard,
            [=](int64_t lo, int64_t hi) {
              k_.gather_rows(a, m, idx, out, lo, hi);
            });
}

void KernelBackend::ScatterAddRows(float* target, int64_t rows, int64_t m,
                                   const int64_t* idx, int64_t count,
                                   const float* src) const {
  // One pass in source order on the calling thread. Duplicate
  // destinations rule out splitting the source list, and a target-row
  // split (every shard scanning the whole list, or the list bucketed by
  // shard first) measured slower at 4 workers than at 1
  // (BM_ScatterAddRowsBackend).
  (void)rows;
  k_.scatter_add_rows(target, m, idx, count, src);
}

void KernelBackend::RowDot(const float* a, const float* b, float* out,
                           int64_t n, int64_t m) const {
  RunRanges(n, n * m, kParallelRowsMinWork, kShardMinRowsPerShard,
            [=](int64_t lo, int64_t hi) { k_.row_dot(a, b, out, m, lo, hi); });
}

void KernelBackend::EltwiseMap(const float* in, float* out, int64_t n,
                               MapFn f, float p) const {
  const MapFn g = Translate(f, kMapKeys, k_.map_twins, k_.num_map_twins);
  RunRanges(n, n, kParallelEltwiseMinWork, kShardMinElemsPerShard,
            [=](int64_t lo, int64_t hi) { g(in + lo, out + lo, hi - lo, p); });
}

void KernelBackend::EltwiseZip(const float* a, const float* b, float* out,
                               int64_t n, ZipFn f, float p) const {
  const ZipFn g = Translate(f, kZipKeys, k_.zip_twins, k_.num_zip_twins);
  RunRanges(n, n, kParallelEltwiseMinWork, kShardMinElemsPerShard,
            [=](int64_t lo, int64_t hi) {
              g(a + lo, b + lo, out + lo, hi - lo, p);
            });
}

double KernelBackend::ReduceSum(const float* in, int64_t n) const {
  const int64_t num_chunks = (n + kReduceSumChunk - 1) / kReduceSumChunk;
  if (num_chunks <= 1) return k_.chunk_sum(in, 0, n);
  // Fixed-chunk double partials, chunk ranges cut like rows, combined in
  // chunk order: the association is set by kReduceSumChunk alone.
  std::vector<double> partial(static_cast<size_t>(num_chunks), 0.0);
  double* partials = partial.data();
  RunRanges(num_chunks, n, 0, 1, [=](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      const int64_t begin = c * kReduceSumChunk;
      partials[c] =
          k_.chunk_sum(in, begin, std::min(n, begin + kReduceSumChunk));
    }
  });
  double total = 0.0;
  for (double v : partial) total += v;
  return total;
}

// The broadcast zips and both reductions run whole on the calling thread
// under any cap. A pool fan-out of the zips or of RowSums won fewer than 9
// of 10 alternating train_taobao pairs (the ablation in
// BENCH_train_backend_default.json), and the [1,m] ColSums inputs are
// bias-row gradients (1, 8 and 16 wide in GNMR), too narrow to split.
void KernelBackend::BroadcastZip(const float* a, const float* b, float* out,
                                 int64_t n, int64_t m, Broadcast kind,
                                 bool b_first, ZipFn f, float p) const {
  kernels::BroadcastZipRows(
      a, b, out, m, kind, b_first,
      Translate(f, kZipKeys, k_.zip_twins, k_.num_zip_twins), p, 0, n);
}

void KernelBackend::RowSums(const float* in, float* out, int64_t n,
                            int64_t m) const {
  k_.row_sums(in, out, m, 0, n);
}

void KernelBackend::ColSums(const float* in, float* out, int64_t n,
                            int64_t m) const {
  k_.col_sums(in, out, n, m);
}

void KernelBackend::RunRows(int64_t n, int64_t work_per_row,
                            const RowsFn& rows) const {
  RunRanges(n, n * work_per_row, kParallelRowsMinWork, kShardMinRowsPerShard,
            rows);
}

void KernelBackend::QueryDot(const float* q, const float* rows, float* out,
                             int64_t n, int64_t m) const {
  k_.query_dot(q, rows, out, n, m);
}

void KernelBackend::QueryDotIndexed(const float* q, const float* base,
                                    const int64_t* idx, float* out, int64_t n,
                                    int64_t m) const {
  k_.query_dot_indexed(q, base, idx, out, n, m);
}

// ---- Registry ---------------------------------------------------------------

namespace {

// The reference: the serial table, every op one inline range.
constexpr KernelBackend kSerialReference("serial",
                                         kernels::kSerialRangeKernels, 1);

// The serial table on the pool: what "sharded" runs without AVX2+FMA.
constexpr KernelBackend kShardedSerialKernels(
    "sharded", kernels::kSerialRangeKernels, KernelBackend::kUncappedShards);

// The registered "sharded" backend runs the vector table when both the
// build (backend_simd.cc compiled with AVX2) and the host (runtime cpuid)
// support it, the serial table otherwise. The cpuid check happens BEFORE
// touching the vector TU, so no AVX2 instruction can execute on an
// unsupported host.
const KernelBackend* ShardedBackendInstance() {
  static const KernelBackend instance(
      "sharded",
      []() -> const RangeKernels& {
        const util::CpuFeatures& cpu = util::HostCpuFeatures();
        if (cpu.avx2 && cpu.fma) {
          if (const RangeKernels* native = simd::NativeSimdKernels()) {
            return *native;
          }
        }
        return kernels::kSerialRangeKernels;
      }(),
      KernelBackend::kUncappedShards);
  return &instance;
}

std::atomic<const KernelBackend*> g_backend{nullptr};

// Registered backend names for error messages, in registration order.
std::string AvailableNames() {
  std::string names;
  for (const KernelBackend* b : AllBackends()) {
    if (!names.empty()) names += ", ";
    names += b->name();
  }
  return names;
}

const KernelBackend* DefaultBackend() {
  if (const char* env = std::getenv("GNMR_BACKEND")) {
    if (*env != '\0') {
      const KernelBackend* b = FindBackend(env);
      GNMR_CHECK(b != nullptr) << "unknown backend '" << env
                               << "' in GNMR_BACKEND (available: "
                               << AvailableNames() << ")";
      return b;
    }
  }
  return ShardedBackendInstance();
}

}  // namespace

const std::vector<const KernelBackend*>& AllBackends() {
  static const std::vector<const KernelBackend*> all = {
      &kSerialReference, ShardedBackendInstance()};
  return all;
}

const KernelBackend* ShardedSerialKernelsForTest() {
  return &kShardedSerialKernels;
}

const KernelBackend* FindBackend(const std::string& name) {
  for (const KernelBackend* b : AllBackends()) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

const KernelBackend& GetBackend() {
  const KernelBackend* b = g_backend.load(std::memory_order_acquire);
  if (b == nullptr) {
    b = DefaultBackend();
    const KernelBackend* expected = nullptr;
    // First caller wins; a concurrent first call resolves identically.
    g_backend.compare_exchange_strong(expected, b, std::memory_order_acq_rel);
  }
  return *b;
}

void SetBackend(const std::string& name) {
  const KernelBackend* b = FindBackend(name);
  GNMR_CHECK(b != nullptr) << "unknown backend '" << name
                           << "' (available: " << AvailableNames() << ")";
  g_backend.store(b, std::memory_order_release);
}

ScopedBackend::ScopedBackend(const std::string& name)
    : previous_(&GetBackend()) {
  SetBackend(name);
}

ScopedBackend::ScopedBackend(const KernelBackend* backend)
    : previous_(&GetBackend()) {
  GNMR_CHECK(backend != nullptr);
  g_backend.store(backend, std::memory_order_release);
}

ScopedBackend::~ScopedBackend() {
  g_backend.store(previous_, std::memory_order_release);
}

}  // namespace tensor
}  // namespace gnmr
