// Retrieval-strategy interface of the serving read path.
//
// RecService (and anything else answering top-N requests over a
// ServingModel snapshot) programs against this interface instead of a
// concrete scan: ExactRetriever (exact_retriever.h) is the full-catalogue
// blocked scan, HnswRetriever (hnsw_retriever.h) walks a
// navigable-small-world graph and evaluates a sub-linear slice. Future
// index types (LSH, disk-resident) drop in behind the same calls.
//
// Contract every strategy honours:
//   - scores are the dot product of ServingModel::Score — the lane-partial
//     double association of tensor::LanePartialDot (backend.h), which every
//     KernelBackend's QueryDot/QueryDotIndexed computes bit-identically —
//     so an item scanned by any strategy, through any backend, gets the
//     bit-identical score;
//   - output is sorted by BetterThan (score desc, ties by ascending item
//     id) and excludes the user's seen items;
//   - all methods are const and thread-safe; implementations share
//     ownership of the model snapshot so they outlive hot swaps.
#ifndef GNMR_SERVE_RETRIEVER_H_
#define GNMR_SERVE_RETRIEVER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/model_io.h"
#include "src/serve/seen_items.h"
#include "src/tensor/backend.h"

namespace gnmr {
namespace serve {

/// One recommended item with its dot-product score.
struct RecEntry {
  int64_t item = 0;
  float score = 0.0f;

  bool operator==(const RecEntry& other) const {
    return item == other.item && score == other.score;
  }
};

/// Total order used for ranking: higher score first, ties by item id.
inline bool BetterThan(const RecEntry& a, const RecEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

// ---- Shared scan primitives -------------------------------------------------
// Every strategy scores and ranks with the same primitives — DotScore for
// single rows, the active KernelBackend's QueryDot/QueryDotIndexed for
// bulk scans — so "an item scanned by any strategy gets the bit-identical
// score and tie order" is enforced structurally instead of by keeping
// per-strategy copies in sync.

/// Dot product of `urow` and `vrow`: the lane-partial double association
/// of backend.h — exactly ServingModel::Score and one output element of
/// KernelBackend::QueryDot.
inline float DotScore(const float* urow, const float* vrow, int64_t width) {
  return static_cast<float>(tensor::LanePartialDot(urow, vrow, width));
}

/// Offers `e` to a worst-on-top bounded heap of capacity `k`: with
/// BetterThan as the "less" comparator the std heap front is the entry no
/// other beats, i.e. the current worst. The kept set is the range's top-k
/// under the BetterThan total order regardless of insertion order. The
/// capacity check runs BEFORE the seen lookup, so entries that cannot
/// make the cut skip it.
inline void OfferToBoundedHeap(std::vector<RecEntry>* heap, int64_t k,
                               const RecEntry& e, const SeenItems* seen,
                               int64_t user) {
  if (static_cast<int64_t>(heap->size()) == k &&
      !BetterThan(e, heap->front())) {
    return;
  }
  if (seen != nullptr && seen->Contains(user, e.item)) return;
  if (static_cast<int64_t>(heap->size()) < k) {
    heap->push_back(e);
    std::push_heap(heap->begin(), heap->end(), BetterThan);
  } else {
    std::pop_heap(heap->begin(), heap->end(), BetterThan);
    heap->back() = e;
    std::push_heap(heap->begin(), heap->end(), BetterThan);
  }
}

/// Whether a retriever splits its scan across the shard pool.
enum class ItemShardMode {
  /// Shard when the active kernel backend is "sharded" (checked per call).
  kAuto,
  /// Always shard (tests / benches driving the pool directly).
  kOn,
  /// Never shard; the single-threaded scan.
  kOff,
};

/// True when `mode` means "split this call across the shard pool" under
/// the currently active kernel backend.
bool ItemShardingActive(ItemShardMode mode);

/// Cumulative per-retriever counters (monotonic since construction; the
/// service snapshots them into ServiceStats). `scanned_items` counts item
/// rows scored before seen-filtering; for the exact strategy it is
/// requests * catalogue size, for an approximate strategy the gap to that
/// product is exactly the work the index saved.
struct RetrieverStats {
  /// Single-user retrievals served (a batch counts once per user).
  uint64_t requests = 0;
  /// Item rows scored across all requests.
  uint64_t scanned_items = 0;
  /// Embedding bytes streamed to produce those scores (the scanned item
  /// rows). This is the memory-bandwidth cost of the scan — the number
  /// that matters when the model is served out of a shared mmap.
  uint64_t scanned_bytes = 0;
  /// HNSW only: graph nodes expanded (neighbor lists walked) across all
  /// requests — the pointer-chasing depth of the search, next to
  /// scanned_items which counts the distance evaluations those hops
  /// triggered (0 for the exact scan).
  uint64_t hops = 0;
};

/// Read-only top-K retrieval strategy over a ServingModel snapshot.
class Retriever {
 public:
  virtual ~Retriever() = default;

  /// Strategy name ("exact", "hnsw").
  virtual const char* name() const = 0;

  /// Top-k items for `user`, best first by BetterThan, excluding the
  /// user's seen items. k is clamped to the catalogue size; fewer than k
  /// entries come back when filtering (or a graph walk that reaches too
  /// few items) leaves fewer candidates.
  virtual std::vector<RecEntry> RetrieveTopN(int64_t user,
                                             int64_t k) const = 0;

  /// RetrieveTopN for every user in `users`; output order matches input
  /// order and every per-user result is identical to a RetrieveTopN call
  /// at any thread/worker count.
  virtual std::vector<std::vector<RecEntry>> RetrieveBatch(
      const std::vector<int64_t>& users, int64_t k) const = 0;

  /// Counter snapshot (thread-safe).
  virtual RetrieverStats Stats() const = 0;

  /// eval::Scorer adapter sharing the model snapshot; safe to use after
  /// this retriever goes away. Scores are bit-identical to
  /// ServingModel::Score regardless of strategy.
  virtual std::unique_ptr<eval::Scorer> MakeScorer() const = 0;

  virtual const core::ServingModel& model() const = 0;
  virtual std::shared_ptr<const core::ServingModel> model_ptr() const = 0;
  /// Null when seen-item filtering is disabled.
  virtual const SeenItems* seen() const = 0;
  virtual std::shared_ptr<const SeenItems> seen_ptr() const = 0;
};

/// Merges per-shard bounded-heap winners into the global top-k. The global
/// top-k is a subset of the union of per-shard top-k's, and BetterThan is a
/// total order (ties broken by item id), so sorting the concatenation
/// reproduces the unsharded scan exactly. Consumes `parts`.
inline std::vector<RecEntry> MergeShardTopK(
    std::vector<std::vector<RecEntry>>* parts, int64_t k) {
  size_t total = 0;
  for (const std::vector<RecEntry>& part : *parts) total += part.size();
  std::vector<RecEntry> merged;
  merged.reserve(total);
  for (std::vector<RecEntry>& part : *parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), BetterThan);
  if (static_cast<int64_t>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  return merged;
}

}  // namespace serve
}  // namespace gnmr

#endif  // GNMR_SERVE_RETRIEVER_H_
