// HNSW (hierarchical navigable small world) approximate top-N retrieval —
// the graph-based Retriever strategy (retriever.h), and the first whose
// per-query work is sub-linear in the catalogue.
//
// The ServingModel carries an offline-built layered proximity graph
// (core::BuildHnswIndex): every item is a level-0 node with up to 2*m
// neighbors, a geometrically-thinning subset of items also occupies the
// upper levels with up to m neighbors each, and levels are a pure
// fixed-seed function of the item id. A request starts at the persisted
// entry point, greedily descends the upper levels (one closest node per
// level — the zoom-in), then runs a best-first beam of width
// ef = max(ef_search, k) over level 0, offering every scored node to the
// same bounded heap the scan strategies use. Scores flow through
// KernelBackend::QueryDot/QueryDotIndexed and rank under the shared
// BetterThan total order, so an item the walk reaches gets the
// bit-identical score and tie order the exact scan would give it — the
// approximation is purely in coverage (whether the walk reaches the true
// top-k), measured by eval::RetrievalRecallAtK and bounded in-tree by the
// recall@10 gate in hnsw_retriever_test.
//
// Unlike the scan strategies a single query never shards: the walk is
// inherently sequential (each hop's frontier depends on the last), and at
// ef_search-scale candidate counts a fan-out would cost more than the
// scan it saves. Batches fan user blocks out over the shard pool exactly
// like IvfRetriever::RetrieveBatch.
//
// Stats: `hops` counts nodes whose neighbor lists were walked,
// `scanned_items` the distance evaluations those hops triggered — the
// eval count over the catalogue size is the sub-linearity ratio the
// bench (BENCH_retrieval_hnsw.json) and the in-tree gate report.
#ifndef GNMR_SERVE_HNSW_RETRIEVER_H_
#define GNMR_SERVE_HNSW_RETRIEVER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/serve/retriever.h"

namespace gnmr {
namespace core {

/// Builds the HNSW graph over the item embedding rows and attaches it to
/// `model` (replacing any graph already attached; an IVF index on the same
/// model is untouched). m <= 0 picks tensor::kHnswDefaultM,
/// ef_construction <= 0 tensor::kHnswDefaultEfConstruction (both floored
/// at 2 / m respectively after defaulting). The model must be consistent.
///
/// Deterministic by construction: levels come from the fixed-seed per-item
/// hash, items are inserted in a hash-shuffled order (a second pass over
/// the same per-item hash, ties by ascending id — a pure function of the
/// ids, so every insertion prefix is a uniform sample of the catalogue),
/// every candidate distance is a KernelBackend::QueryDotIndexed score
/// (bit-identical on all backends) ranked under serve::BetterThan, and the
/// heuristic prune breaks its ties the same way — so the same embeddings
/// yield the byte-identical graph on every backend, run to run. Offline
/// cost: O(num_items * ef_construction * m * width).
util::Status BuildHnswIndex(ServingModel* model, int64_t m,
                            int64_t ef_construction);

}  // namespace core

namespace serve {

/// Read-only approximate top-K retriever over a ServingModel snapshot
/// carrying an HNSW graph. Shares ownership of model and seen sets like
/// the scan retrievers; all methods are const and thread-safe.
class HnswRetriever : public Retriever {
 public:
  /// `model` must be non-null, consistent, and carry an HNSW graph
  /// (model->has_hnsw()). `ef_search` is the level-0 beam width;
  /// <= 0 picks tensor::kHnswDefaultEfSearch, and the effective beam
  /// never drops below the request's k.
  explicit HnswRetriever(std::shared_ptr<const core::ServingModel> model,
                         std::shared_ptr<const SeenItems> seen = nullptr,
                         int64_t ef_search = 0);

  const char* name() const override { return "hnsw"; }

  /// Approximate top-k for `user`: the exact ranking restricted to the
  /// nodes the graph walk evaluates. Best first, ties by ascending item
  /// id, seen items excluded; k is clamped to the catalogue size. Fewer
  /// than k entries come back only when seen-filtering eats into the
  /// beam's survivors.
  std::vector<RecEntry> RetrieveTopN(int64_t user, int64_t k) const override;

  /// RetrieveTopN per user; user blocks fan out over the shard pool when
  /// sharding is active and run in order otherwise. Output order matches
  /// input; per-user results are identical to RetrieveTopN at any worker
  /// count (each user's walk is sequential and deterministic).
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

  /// Effective beam width (post defaulting; a request's k can still raise
  /// it per call).
  int64_t ef_search() const { return ef_search_; }

  /// Users per parallel work unit in RetrieveBatch (same tile as
  /// IvfRetriever).
  static constexpr int64_t kUserBlock = 8;

 private:
  /// Full single-user retrieval (sequential walk; batch blocks call it
  /// directly).
  std::vector<RecEntry> RetrieveOne(int64_t user, int64_t k) const;

  std::shared_ptr<const core::ServingModel> model_;
  std::shared_ptr<const SeenItems> seen_;
  std::shared_ptr<const core::HnswIndex> hnsw_;
  int64_t ef_search_ = 0;
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> scanned_items_{0};
  mutable std::atomic<uint64_t> scanned_bytes_{0};
  mutable std::atomic<uint64_t> hops_{0};
};

}  // namespace serve
}  // namespace gnmr

#endif  // GNMR_SERVE_HNSW_RETRIEVER_H_
