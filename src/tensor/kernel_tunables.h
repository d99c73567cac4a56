// Shared size thresholds and tile shapes for the kernel backends
// (backend.h). Every backend reads its cutoffs from here so "when is it
// worth fanning out / blocking" is decided in exactly one place.
//
// The parallel thresholds were measured on the seed container (see
// BENCH_micro_kernels.json): below them, shard dispatch overhead exceeds
// the kernel's single-thread runtime.
#ifndef GNMR_TENSOR_KERNEL_TUNABLES_H_
#define GNMR_TENSOR_KERNEL_TUNABLES_H_

#include <cstdint>

namespace gnmr {
namespace tensor {

// ---- Parallel fan-out thresholds (KernelBackend) ----------------------------

/// MatMul fans out only when n*k*m (multiply-adds) reaches this.
inline constexpr int64_t kParallelMatMulMinWork = int64_t{1} << 16;

/// SpMM fans out only when nnz*d (multiply-adds) reaches this.
inline constexpr int64_t kParallelSpmmMinWork = int64_t{1} << 16;

/// Row-indexed kernels (GatherRows / RowDot) fan out only when rows*cols
/// (floats moved) reaches this; KernelBackend::RunRows bodies when rows
/// times their per-row multiply-adds does.
inline constexpr int64_t kParallelRowsMinWork = int64_t{1} << 15;

/// Elementwise map/zip kernels fan out only at this many elements.
inline constexpr int64_t kParallelEltwiseMinWork = int64_t{1} << 15;

// ---- Deterministic reductions ----------------------------------------------

/// ReduceSum accumulates double partials over fixed chunks of this many
/// elements, then combines partials in chunk order. The chunking is part of
/// the op's contract (independent of backend and thread count), so every
/// backend produces bit-identical sums.
inline constexpr int64_t kReduceSumChunk = 4096;

/// Lane count of the fixed lane-partial accumulation inside a ReduceSum
/// chunk and across a RowDot row: lane l accumulates elements j with
/// j % lanes == l, and lanes are combined in ascending order. Like
/// kReduceSumChunk, the lane shape is part of the op contract — the scalar
/// reference in backend_kernels.h evaluates the exact association the AVX2
/// kernels compute with two 4-wide double vectors, so every backend stays
/// bit-identical. 8 = one AVX2 register of floats widened to two of doubles;
/// changing it breaks bit-compatibility with previously recorded results.
inline constexpr int64_t kReduceLanes = 8;

// ---- AVX2 range-kernel tile/panel shapes (backend_simd.cc) ------------------
// The vector kernels' determinism contract is "same per-element accumulation
// order as serial, unfused mul+add" — so the tile shapes below only choose
// which output elements are computed together in registers, never the order
// of a single element's k-sum. They can be retuned freely without breaking
// bit-compatibility; the *lane* constants (kReduceLanes above) cannot.

/// Rows per MatMul register tile. 6 rows x 2 column vectors = 12 live
/// accumulators, leaving headroom in 16 ymm registers for the b-panel loads
/// and the broadcast. The sharded backend cuts MatMul shards on multiples
/// of this, so only the last shard runs a scalar row tail.
inline constexpr int64_t kSimdMatMulRowTile = 6;

/// Columns per MatMul tile on the AVX2 path (2 x 8-float ymm).
inline constexpr int64_t kSimdMatMulColTileAvx2 = 16;

/// Columns per MatMul tile on the AVX-512 path (2 x 16-float zmm). The
/// wider tile is what clears the >=4x-serial acceptance bar on AVX-512
/// hosts; without FMA (which would change results), AVX2 mul+add peaks
/// around 3x serial on current Intel cores.
inline constexpr int64_t kSimdMatMulColTileAvx512 = 32;

/// Column panel width of the SpMM inner loop: up to 4 ymm accumulators per
/// output row panel, re-walking the row's nonzeros once per panel.
inline constexpr int64_t kSimdSpmmColPanel = 32;

// ---- Sharded execution (shard_plan.h / shard_pool.h) ------------------------

/// Worker-thread count of the global shard pool. 0 means "one per hardware
/// thread". Overridable at process start via the GNMR_SHARD_WORKERS
/// environment variable, and at runtime via tensor::SetShardWorkers().
inline constexpr int64_t kShardWorkersDefault = 0;

/// How long (microseconds) an idle shard worker keeps polling its queue
/// before sleeping on its condvar, and how long a dispatching thread polls
/// for completion before blocking. Back-to-back kernel dispatches then
/// reach a worker that is still awake, so they pay no futex wake-up; 0
/// sleeps at once.
inline constexpr int64_t kShardSpinMicros = 50;

/// Row-indexed kernels never split below this many rows per shard; tiny
/// matrices stay on one worker instead of paying dispatch latency.
inline constexpr int64_t kShardMinRowsPerShard = 8;

/// Elementwise / reduction kernels never split below this many elements
/// per shard.
inline constexpr int64_t kShardMinElemsPerShard = int64_t{1} << 12;

/// The sharded ExactRetriever never splits one request's catalogue below this many items per shard. At 256
/// the 2600-item catalogue of perfbench train_taobao (two request
/// threads) split 4 ways and p99_us rose on 10 of 10 alternating pairs
/// against 2048, which scans it inline, with max_qps unchanged
/// (BENCH_serve_split_floor.json). Where the break-even lies for larger
/// catalogues is not measured end to end.
inline constexpr int64_t kShardMinItemsPerShard = 2048;

// ---- HNSW retrieval (core::BuildHnswIndex, serve::HnswRetriever) ------------

/// Default max neighbors per node on levels >= 1 when the caller passes
/// m <= 0; level 0 keeps up to 2*m. 16 is the ballpark every production
/// HNSW deployment starts from: recall on the bench catalogues saturates
/// past it while build time and graph bytes keep growing linearly.
inline constexpr int64_t kHnswDefaultM = 16;

/// Default construction beam width (candidates tracked per layer while
/// inserting) when the caller passes ef_construction <= 0. Build is
/// offline, so this leans toward graph quality over build speed.
inline constexpr int64_t kHnswDefaultEfConstruction = 128;

/// Default search beam width per request when the caller passes
/// ef_search <= 0 (always raised to the request's k). 64 holds the
/// in-tree recall@10 gate at >= 0.95 on the pinned clustered config
/// while evaluating well under 10% of the catalogue.
inline constexpr int64_t kHnswDefaultEfSearch = 64;

/// Fixed seed of the per-item level hash. Levels are a pure function of
/// (item id, this constant) — independent of insertion order and of every
/// runtime knob — so the same catalogue always gets the same level
/// assignment. Changing it changes every persisted graph.
inline constexpr uint64_t kHnswLevelSeed = 0x9e3779b97f4a7c15ull;

/// Hard cap on the level assignment: the geometric tail could in principle
/// hash to an absurd level, and each level costs one greedy descent per
/// query. 2^32 items at m = 16 occupy ~8 levels, so 32 is unreachable in
/// practice and only bounds the pathological case.
inline constexpr int64_t kHnswMaxLevel = 32;

/// Deployment guidance threshold: below this many items one blocked exact
/// pass beats the graph walk's pointer chasing, so serving frontends
/// (gnmr_serve) fall back to the exact strategy. BuildHnswIndex itself
/// indexes any catalogue.
inline constexpr int64_t kHnswMinItemsForIndex = 1024;

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_KERNEL_TUNABLES_H_
