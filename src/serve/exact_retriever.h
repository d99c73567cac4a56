// Exact top-N retrieval over a ServingModel snapshot — the reference
// Retriever strategy (retriever.h).
//
// The offline artifact (core::ServingModel) holds the multi-order node
// embeddings; online recommendation is a dot-product scan of one user row
// against every item row. ExactRetriever replaces the per-item virtual
// eval::Scorer path with a blocked user-block x item-embedding matmul that
// keeps a bounded heap per user row, so full-catalogue retrieval streams
// through the embedding table instead of re-touching it per candidate.
//
// Results are exact: scores are accumulated in double in the same order as
// ServingModel::Score, and ties break by ascending item id, so the output
// is bit-identical to brute-force scoring + std::sort at any thread count.
// Every other strategy (HnswRetriever, future indexes) is measured
// against this scan — eval::RetrievalRecallAtK quantifies the
// gap.
//
// Item sharding: when the "sharded" kernel backend is active (the
// default), or sharding is forced via ItemShardMode::kOn, single-user
// retrieval partitions the catalogue with a ShardPlan (at least
// kShardMinItemsPerShard items per shard, so small catalogues stay
// inline) and scans the shards on the global shard pool; each shard
// keeps its own bounded heap and the per-shard top-k
// candidates merge by (score desc, item asc) — the same total order as the
// unsharded scan, so the output stays bit-identical. Batched retrieval
// fans user blocks over the same pool instead (outer parallelism beats
// splitting the item range when many users are in flight).
#ifndef GNMR_SERVE_EXACT_RETRIEVER_H_
#define GNMR_SERVE_EXACT_RETRIEVER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/serve/retriever.h"

namespace gnmr {
namespace serve {

/// Read-only exact top-K retriever over a ServingModel snapshot. Shares
/// ownership of the model (and optionally of per-user seen sets), so it
/// stays valid while any caller holds it — the property the hot-swapping
/// RecService relies on. All methods are const and thread-safe.
class ExactRetriever : public Retriever {
 public:
  /// `model` must be non-null and consistent. `seen` (optional) marks
  /// items to exclude per user; pass nullptr to disable filtering.
  /// `shard_mode` controls catalogue sharding (see ItemShardMode).
  explicit ExactRetriever(std::shared_ptr<const core::ServingModel> model,
                          std::shared_ptr<const SeenItems> seen = nullptr,
                          ItemShardMode shard_mode = ItemShardMode::kAuto);

  const char* name() const override { return "exact"; }

  /// Exact top-k items for `user`, best first, ties by ascending item id,
  /// excluding the user's seen items. k is clamped to the catalogue size;
  /// fewer than k entries come back when filtering leaves fewer items.
  std::vector<RecEntry> RetrieveTopN(int64_t user, int64_t k) const override;

  /// RetrieveTopN for every user in `users`, in user blocks (fanned out
  /// over the shard pool when item sharding is active). Output order
  /// matches input order; results are identical to per-user RetrieveTopN
  /// calls at any worker count.
  std::vector<std::vector<RecEntry>> RetrieveBatch(
      const std::vector<int64_t>& users, int64_t k) const override;

  RetrieverStats Stats() const override;

  /// eval::Scorer adapter on the fast path; holds a model snapshot, so it
  /// is safe to use after this retriever (or the caller's model handle)
  /// goes away. Scores are bit-identical to ServingModel::Score.
  std::unique_ptr<eval::Scorer> MakeScorer() const override;

  const core::ServingModel& model() const override { return *model_; }
  std::shared_ptr<const core::ServingModel> model_ptr() const override {
    return model_;
  }
  /// Null when seen-item filtering is disabled.
  const SeenItems* seen() const override { return seen_.get(); }
  std::shared_ptr<const SeenItems> seen_ptr() const override { return seen_; }

  /// Users per parallel work unit; item rows are re-streamed once per user
  /// block, so larger blocks amortise memory traffic.
  static constexpr int64_t kUserBlock = 8;
  /// Items scored per inner tile (tile of item rows kept hot in cache).
  static constexpr int64_t kItemBlock = 256;

 private:
  /// Retrieves over the item range [item_begin, item_end) for
  /// users[0..count) (count <= kUserBlock) into outs[0..count): each out is
  /// the range's top-k (at most k entries), sorted best-first by
  /// BetterThan. [0, num_items) yields the final answer directly; a shard's
  /// sub-range yields candidates for the deterministic merge.
  void RetrieveBlock(const int64_t* users, int64_t count, int64_t k,
                     int64_t item_begin, int64_t item_end,
                     std::vector<RecEntry>* outs) const;

  /// Item-sharded RetrieveBlock over the full catalogue: partitions
  /// [0, num_items) across the shard pool, scans every shard range for
  /// all `count` users at once (each item tile streamed a single time for
  /// the block), and merges the per-shard winners per user — bit-identical
  /// to the unsharded scan, which single-shard plans fall back to. Serves
  /// both single-user retrieval (count == 1) and single-block batches.
  void RetrieveBlockItemSharded(const int64_t* users, int64_t count,
                                int64_t k, std::vector<RecEntry>* outs) const;

  std::shared_ptr<const core::ServingModel> model_;
  std::shared_ptr<const SeenItems> seen_;
  ItemShardMode shard_mode_ = ItemShardMode::kAuto;
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> scanned_items_{0};
  mutable std::atomic<uint64_t> scanned_bytes_{0};
};

}  // namespace serve
}  // namespace gnmr

#endif  // GNMR_SERVE_EXACT_RETRIEVER_H_
