// IVF (inverted-file) approximate top-N retrieval — the first index-based
// Retriever strategy (retriever.h).
//
// The ServingModel carries an offline-built IVF index (core::BuildIvfIndex):
// item embeddings clustered by deterministic k-means, one posting list of
// item ids per cluster. A request scores the user row against the nlist
// centroids, keeps the top `nprobe` clusters by (dot score desc, centroid
// id asc), and runs the exact bounded-heap scan over only those clusters'
// posting lists — the same double-accumulation score and (score desc, item
// asc) tie order as ExactRetriever, so every scanned item ranks exactly as
// the full scan would rank it. The approximation is purely in coverage:
// with nprobe == nlist every posting list is scanned and the output is
// bit-identical to ExactRetriever; smaller nprobe trades recall
// (eval::RetrievalRecallAtK measures it) for scanning ~nprobe/nlist of the
// catalogue.
//
// Sharding: when item sharding is active (same ItemShardMode/backend rule
// as the exact scan), the probed posting lists fan out over the global
// ShardPool in contiguous candidate ranges, each with its own bounded
// heap, merged by the shared (score, item) total order — output unchanged
// at any worker count.
//
// Quantized tier: when the index carries int8 codes (BuildIvfIndex with
// quantize = true) and the retriever is constructed with quantized = true,
// retrieval runs two phases. Phase 1 scans the probed lists' int8 codes
// (KernelBackend::I8QueryDot — exact integer dots, dequantized by one
// fixed float expression) into a bounded pool of the rerank_k best
// approximate candidates, streaming ~width bytes per item instead of
// 4*width. Phase 2 re-scores only the pool with the exact float path and
// ranks under the same BetterThan order, so the final ordering semantics
// are unchanged — the quantization can only affect WHICH items reach the
// rerank pool, a recall effect measured by eval::RetrievalRecallAtK, not
// an ordering effect. With rerank_k covering every scanned candidate the
// output is bit-identical to the float IVF scan at the same nprobe. The
// code scan always runs inline (unsharded): it streams ~4x fewer bytes,
// so the shard fan-out's merge overhead outweighs its win here.
#ifndef GNMR_SERVE_IVF_RETRIEVER_H_
#define GNMR_SERVE_IVF_RETRIEVER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/serve/retriever.h"

namespace gnmr {
namespace core {

/// Clusters the item embedding rows into `nlist` posting lists
/// (deterministic k-means through the active kernel backend) and attaches
/// the index to `model`. nlist <= 0 picks tensor::kIvfDefaultNlist; the
/// value is clamped to the catalogue size. The model must be consistent
/// (embeddings covering num_users + num_items rows). Replaces any index
/// already attached. Offline cost: O(max_iters * num_items * nlist * width).
///
/// quantize = true additionally stores symmetric per-row int8 codes of the
/// posting-list item rows (tensor/quantize.h) so IvfRetriever can run its
/// two-phase quantized scan. Always quantizes when asked — the
/// tensor::kIvfQuantizeMinItems threshold is deployment policy applied by
/// the serving frontends, not by this builder.
util::Status BuildIvfIndex(ServingModel* model, int64_t nlist,
                           bool quantize = false);

}  // namespace core

namespace serve {

/// Read-only approximate top-K retriever over a ServingModel snapshot
/// carrying an IVF index. Shares ownership of model and seen sets like
/// ExactRetriever; all methods are const and thread-safe.
class IvfRetriever : public Retriever {
 public:
  /// `model` must be non-null, consistent, and carry an IVF index
  /// (model->has_ivf()). `nprobe` is clamped to [1, nlist]; nprobe <= 0
  /// picks tensor::kIvfDefaultNprobe. `quantized` requests the two-phase
  /// code scan — honoured only when the index actually carries codes
  /// (check quantized() for the effective state). `rerank_k` bounds the
  /// exact-rerank candidate pool; <= 0 picks tensor::kIvfDefaultRerankK,
  /// and the pool never drops below the request's k.
  explicit IvfRetriever(std::shared_ptr<const core::ServingModel> model,
                        std::shared_ptr<const SeenItems> seen = nullptr,
                        int64_t nprobe = 0,
                        ItemShardMode shard_mode = ItemShardMode::kAuto,
                        bool quantized = false, int64_t rerank_k = 0);

  const char* name() const override { return "ivf"; }

  /// Approximate top-k for `user`: the exact ranking restricted to the
  /// top-nprobe clusters' posting lists. Best first, ties by ascending
  /// item id, seen items excluded; k is clamped to the catalogue size.
  /// Fewer than k entries come back when the probed lists (after
  /// filtering) hold fewer items.
  std::vector<RecEntry> RetrieveTopN(int64_t user, int64_t k) const override;

  /// RetrieveTopN per user (probe sets differ per user, so there is no
  /// shared tile to amortise); user blocks fan out over the shard pool
  /// when sharding is active and run in order otherwise. Output order
  /// matches input; per-user results are identical to RetrieveTopN at any
  /// worker count.
  std::vector<std::vector<RecEntry>> RetrieveBatch(
      const std::vector<int64_t>& users, int64_t k) const override;

  RetrieverStats Stats() const override;

  std::unique_ptr<eval::Scorer> MakeScorer() const override;

  const core::ServingModel& model() const override { return *model_; }
  std::shared_ptr<const core::ServingModel> model_ptr() const override {
    return model_;
  }
  const SeenItems* seen() const override { return seen_.get(); }
  std::shared_ptr<const SeenItems> seen_ptr() const override { return seen_; }

  /// Effective probe count (post clamping).
  int64_t nprobe() const { return nprobe_; }
  int64_t nlist() const { return ivf_->nlist(); }
  /// True when the two-phase quantized scan is active (requested AND the
  /// index carries codes).
  bool quantized() const { return quantized_; }
  /// Effective rerank pool bound (post defaulting/clamping).
  int64_t rerank_k() const { return rerank_k_; }

  /// Users per parallel work unit in RetrieveBatch.
  static constexpr int64_t kUserBlock = 8;

 private:
  /// Ids of the nprobe clusters whose centroids score highest against
  /// `user`'s embedding row (score desc, ties by ascending centroid id).
  std::vector<int64_t> ProbeClusters(int64_t user) const;

  /// Offers the scores of candidates[0, count) (item ids) to `*heap` — a
  /// worst-on-top bounded heap of capacity k, seen items skipped. Pure
  /// accumulation: callers sort the finished heap best-first themselves
  /// (or hand the per-shard heaps to MergeShardTopK, which sorts). The
  /// kept set is traversal-order independent, so the unsharded path can
  /// feed the probed posting lists through one heap in place, list by
  /// list, with no per-request candidate copy.
  void ScanCandidates(int64_t user, const int64_t* candidates, int64_t count,
                      int64_t k, std::vector<RecEntry>* heap) const;

  /// Full single-user retrieval; `allow_shard` false keeps the scan inline
  /// (used per user inside an already-fanned-out batch block).
  std::vector<RecEntry> RetrieveOne(int64_t user, int64_t k,
                                    bool allow_shard) const;

  /// The two-phase quantized retrieval (code scan -> exact rerank) for the
  /// already-selected probe set; does its own stat accounting.
  std::vector<RecEntry> RetrieveOneQuantized(
      int64_t user, int64_t k, const std::vector<int64_t>& probes) const;

  std::shared_ptr<const core::ServingModel> model_;
  std::shared_ptr<const SeenItems> seen_;
  std::shared_ptr<const core::IvfIndex> ivf_;
  int64_t nprobe_ = 0;
  ItemShardMode shard_mode_ = ItemShardMode::kAuto;
  bool quantized_ = false;
  int64_t rerank_k_ = 0;
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> scanned_items_{0};
  mutable std::atomic<uint64_t> scanned_bytes_{0};
  mutable std::atomic<uint64_t> probed_clusters_{0};
  mutable std::atomic<uint64_t> scanned_code_bytes_{0};
  mutable std::atomic<uint64_t> reranked_items_{0};
};

}  // namespace serve
}  // namespace gnmr

#endif  // GNMR_SERVE_IVF_RETRIEVER_H_
