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

using kernels::ChunkSum;
using kernels::MatMulRow;
using kernels::RowDotOne;
using kernels::ScatterAddRowRange;
using kernels::SpmmRow;

// ---- SerialBackend ----------------------------------------------------------

class SerialBackend : public KernelBackend {
 public:
  const char* name() const override { return "serial"; }

  void MatMul(const float* a, const float* b, float* out, int64_t n,
              int64_t k, int64_t m) const override {
    for (int64_t i = 0; i < n; ++i) {
      MatMulRow(a + i * k, b, out + i * m, k, m);
    }
  }

  void Spmm(const CsrMatrix& a, const float* x, float* out,
            int64_t d) const override {
    for (int64_t i = 0; i < a.rows(); ++i) {
      SpmmRow(a, x, out + i * d, i, d);
    }
  }

  void GatherRows(const float* a, int64_t m, const int64_t* idx,
                  int64_t count, float* out) const override {
    for (int64_t r = 0; r < count; ++r) {
      std::copy(a + idx[r] * m, a + (idx[r] + 1) * m, out + r * m);
    }
  }

  void ScatterAddRows(float* target, int64_t rows, int64_t m,
                      const int64_t* idx, int64_t count,
                      const float* src) const override {
    ScatterAddRowRange(target, m, idx, count, src, 0, rows);
  }

  void RowDot(const float* a, const float* b, float* out, int64_t n,
              int64_t m) const override {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(RowDotOne(a + i * m, b + i * m, m));
    }
  }

  void EltwiseMap(const float* in, float* out, int64_t n, MapFn f,
                  float p) const override {
    f(in, out, n, p);
  }

  void EltwiseZip(const float* a, const float* b, float* out, int64_t n,
                  ZipFn f, float p) const override {
    f(a, b, out, n, p);
  }

  double ReduceSum(const float* in, int64_t n) const override {
    double total = 0.0;
    for (int64_t start = 0; start < n; start += kReduceSumChunk) {
      total += ChunkSum(in, start, std::min(n, start + kReduceSumChunk));
    }
    return total;
  }
};

// ---- ShardedBackend ---------------------------------------------------------
// Row-range partitioning over the persistent shard pool (shard_pool.h):
// every kernel cuts its row (or chunk) dimension with a ShardPlan and runs
// one RangeKernels entry per shard — the AVX2 table on hosts that have it,
// the serial bodies otherwise. Each output element is computed whole by
// one range call in the serial accumulation order, so results are
// bit-identical to serial at any worker count — including 1, where plans
// collapse to a single inline range — and on either table.

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

class ShardedBackend : public KernelBackend {
 public:
  explicit ShardedBackend(const RangeKernels& kernels) : k_(kernels) {}

  const char* name() const override { return "sharded"; }

  const RangeKernels& range_kernels() const { return k_; }

  void MatMul(const float* a, const float* b, float* out, int64_t n,
              int64_t k, int64_t m) const override {
    if (n <= 1 || n * k * m < kParallelMatMulMinWork) {
      k_.matmul_rows(a, b, out, k, m, 0, n);
      return;
    }
    // Shards cut on register-tile boundaries, so only the last shard runs
    // a ragged scalar tail.
    constexpr int64_t tile = kSimdMatMulRowTile;
    RunUniform((n + tile - 1) / tile, (kShardMinRowsPerShard + tile - 1) / tile,
               [=](const ShardRange& r) {
                 k_.matmul_rows(a, b, out, k, m, r.begin * tile,
                                std::min(n, r.end * tile));
               });
  }

  void Spmm(const CsrMatrix& a, const float* x, float* out,
            int64_t d) const override {
    const int64_t n = a.rows();
    const int64_t* row_ptr = a.row_ptr().data();
    const int64_t* col_idx = a.col_idx().data();
    const float* values = a.values().data();
    if (n <= 1 || a.nnz() * d < kParallelSpmmMinWork) {
      k_.spmm_rows(row_ptr, col_idx, values, x, out, d, 0, n);
      return;
    }
    std::shared_ptr<ShardPool> pool = ShardPool::Global();
    ShardPlan plan = PlanForSpmm(a, pool->workers());
    RunPlan(*pool, plan, [=](const ShardRange& r) {
      k_.spmm_rows(row_ptr, col_idx, values, x, out, d, r.begin, r.end);
    });
  }

  void GatherRows(const float* a, int64_t m, const int64_t* idx,
                  int64_t count, float* out) const override {
    if (count <= 1 || count * m < kParallelRowsMinWork) {
      k_.gather_rows(a, m, idx, out, 0, count);
      return;
    }
    RunUniform(count, kShardMinRowsPerShard, [=](const ShardRange& r) {
      k_.gather_rows(a, m, idx, out, r.begin, r.end);
    });
  }

  void ScatterAddRows(float* target, int64_t rows, int64_t m,
                      const int64_t* idx, int64_t count,
                      const float* src) const override {
    // Target-row partitioning: duplicate destinations make splitting the
    // source loop unsafe, so each shard scans the full index list and
    // applies only its own target rows.
    if (rows <= 1 || count * m < kParallelRowsMinWork) {
      k_.scatter_add_rows(target, m, idx, count, src, 0, rows);
      return;
    }
    RunUniform(rows, kShardMinRowsPerShard, [=](const ShardRange& r) {
      k_.scatter_add_rows(target, m, idx, count, src, r.begin, r.end);
    });
  }

  void RowDot(const float* a, const float* b, float* out, int64_t n,
              int64_t m) const override {
    if (n <= 1 || n * m < kParallelRowsMinWork) {
      k_.row_dot(a, b, out, m, 0, n);
      return;
    }
    RunUniform(n, kShardMinRowsPerShard, [=](const ShardRange& r) {
      k_.row_dot(a, b, out, m, r.begin, r.end);
    });
  }

  void EltwiseMap(const float* in, float* out, int64_t n, MapFn f,
                  float p) const override {
    const MapFn g = Translate(f, kMapKeys, k_.map_twins, k_.num_map_twins);
    if (n < kParallelEltwiseMinWork) {
      g(in, out, n, p);
      return;
    }
    RunUniform(n, kShardMinElemsPerShard, [=](const ShardRange& r) {
      g(in + r.begin, out + r.begin, r.end - r.begin, p);
    });
  }

  void EltwiseZip(const float* a, const float* b, float* out, int64_t n,
                  ZipFn f, float p) const override {
    const ZipFn g = Translate(f, kZipKeys, k_.zip_twins, k_.num_zip_twins);
    if (n < kParallelEltwiseMinWork) {
      g(a, b, out, n, p);
      return;
    }
    RunUniform(n, kShardMinElemsPerShard, [=](const ShardRange& r) {
      g(a + r.begin, b + r.begin, out + r.begin, r.end - r.begin, p);
    });
  }

  double ReduceSum(const float* in, int64_t n) const override {
    int64_t num_chunks = (n + kReduceSumChunk - 1) / kReduceSumChunk;
    if (num_chunks <= 1) return k_.chunk_sum(in, 0, n);
    // Fixed-chunk double partials, chunk indices sharded across workers,
    // combined serially in chunk order — the association is set by
    // kReduceSumChunk alone, so sums match the serial backend exactly.
    std::vector<double> partial(static_cast<size_t>(num_chunks), 0.0);
    double* partials = partial.data();
    RunUniform(num_chunks, 1, [=](const ShardRange& r) {
      for (int64_t c = r.begin; c < r.end; ++c) {
        int64_t begin = c * kReduceSumChunk;
        partials[c] =
            k_.chunk_sum(in, begin, std::min(n, begin + kReduceSumChunk));
      }
    });
    double total = 0.0;
    for (double v : partial) total += v;
    return total;
  }

  // The serving scans stay on the calling thread: they run on serving
  // request threads (already fanned out per request), where a pool
  // dispatch per scan would only add latency jitter.
  void QueryDot(const float* q, const float* rows, float* out, int64_t n,
                int64_t m) const override {
    k_.query_dot(q, rows, out, n, m);
  }

  void QueryDotIndexed(const float* q, const float* base, const int64_t* idx,
                       float* out, int64_t n, int64_t m) const override {
    k_.query_dot_indexed(q, base, idx, out, n, m);
  }

  void I8QueryDot(const int8_t* q, const int8_t* codes, int32_t* out,
                  int64_t n, int64_t m) const override {
    k_.i8_query_dot(q, codes, out, n, m);
  }

 private:
  /// Dispatches one task per shard to `pool`; single-shard plans run
  /// inline (no dispatch latency for small inputs).
  template <typename Fn>
  void RunPlan(ShardPool& pool, const ShardPlan& plan, const Fn& fn) const {
    if (plan.num_shards() <= 1) {
      for (const ShardRange& r : plan.ranges()) fn(r);
      return;
    }
    std::function<void(int64_t)> task = [&plan, &fn](int64_t s) {
      fn(plan.shard(s));
    };
    pool.Run(plan.num_shards(), task);
  }

  /// Uniform row plan sized and dispatched on ONE Global() snapshot, so a
  /// concurrent SetShardWorkers can neither mismatch plan and pool nor
  /// tear the pool down mid-dispatch (and the global slot lock is taken
  /// once per op, not twice).
  template <typename Fn>
  void RunUniform(int64_t n, int64_t min_per_shard, const Fn& fn) const {
    std::shared_ptr<ShardPool> pool = ShardPool::Global();
    ShardPlan plan = ShardPlan::Uniform(n, pool->workers(), min_per_shard);
    RunPlan(*pool, plan, fn);
  }

  /// Cached per-matrix SpMM plan: propagation re-runs the same per-behavior
  /// adjacency every step, and the nnz-balanced cut only needs row_ptr, so
  /// build it once and reuse while the matrix (and worker count) is
  /// unchanged. Keyed by the row_ptr storage address; a stale hit after a
  /// matrix is freed and another allocated in its place is detected by the
  /// rows/nnz/workers fingerprint — and even an undetected collision would
  /// still be a valid (merely unbalanced) partition of [0, rows).
  ShardPlan PlanForSpmm(const CsrMatrix& a, int64_t workers) const {
    const int64_t* key = a.row_ptr().data();
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      auto it = plan_cache_.find(key);
      if (it != plan_cache_.end() && it->second.rows == a.rows() &&
          it->second.nnz == a.nnz() && it->second.workers == workers) {
        return it->second.plan;
      }
    }
    ShardPlan plan =
        kShardSpmmNnzBalanced
            ? ShardPlan::NnzBalanced(a, workers, kShardMinRowsPerShard)
            : ShardPlan::Uniform(a.rows(), workers, kShardMinRowsPerShard);
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      if (plan_cache_.size() >= kMaxCachedPlans) plan_cache_.clear();
      plan_cache_[key] = {a.rows(), a.nnz(), workers, plan};
    }
    return plan;
  }

  struct CachedPlan {
    int64_t rows = 0;
    int64_t nnz = 0;
    int64_t workers = 0;
    ShardPlan plan;
  };
  static constexpr size_t kMaxCachedPlans = 64;

  const RangeKernels& k_;
  mutable std::mutex plan_mu_;
  mutable std::unordered_map<const int64_t*, CachedPlan> plan_cache_;
};

// ---- Registry ---------------------------------------------------------------

const SerialBackend kSerialBackend;

// The registered "sharded" backend runs the vector table when both the
// build (backend_simd.cc compiled with AVX2) and the host (runtime cpuid)
// support it, the serial table otherwise. The cpuid check happens BEFORE
// touching the vector TU, so no AVX2 instruction can execute on an
// unsupported host.
const KernelBackend* ShardedBackendInstance() {
  static const ShardedBackend instance([]() -> const RangeKernels& {
    const util::CpuFeatures& cpu = util::HostCpuFeatures();
    if (cpu.avx2 && cpu.fma) {
      if (const RangeKernels* native = simd::NativeSimdKernels()) {
        return *native;
      }
    }
    return kernels::kSerialRangeKernels;
  }());
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
  return &kSerialBackend;
}

}  // namespace

// ---- Serving scan ops: serial base implementations --------------------------
// Non-pure with reference bodies so only backends that accelerate these
// override them. Per-output-element results, no cross-row accumulation, so
// any override is bit-identical by construction as long as it keeps the
// lane-partial (float) / plain-int32 (code) dot.

void KernelBackend::QueryDot(const float* q, const float* rows, float* out,
                             int64_t n, int64_t m) const {
  kernels::QueryDotRows(q, rows, out, n, m);
}

void KernelBackend::QueryDotIndexed(const float* q, const float* base,
                                    const int64_t* idx, float* out, int64_t n,
                                    int64_t m) const {
  kernels::QueryDotIndexedRows(q, base, idx, out, n, m);
}

void KernelBackend::I8QueryDot(const int8_t* q, const int8_t* codes,
                               int32_t* out, int64_t n, int64_t m) const {
  kernels::I8QueryDotRows(q, codes, out, n, m);
}

const std::vector<const KernelBackend*>& AllBackends() {
  static const std::vector<const KernelBackend*> all = {
      &kSerialBackend, ShardedBackendInstance()};
  return all;
}

const KernelBackend* ShardedSerialKernelsForTest() {
  static const ShardedBackend instance(kernels::kSerialRangeKernels);
  return &instance;
}

bool ShardedUsesVectorKernelsForTest() {
  const auto* sharded =
      static_cast<const ShardedBackend*>(ShardedBackendInstance());
  return &sharded->range_kernels() != &kernels::kSerialRangeKernels;
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

ScopedBackend::~ScopedBackend() {
  g_backend.store(previous_, std::memory_order_release);
}

}  // namespace tensor
}  // namespace gnmr
