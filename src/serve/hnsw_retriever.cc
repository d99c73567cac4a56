#include "src/serve/hnsw_retriever.h"

#include <algorithm>
#include <queue>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"

namespace gnmr {
namespace serve {

namespace {

/// Frontier ordering for the best-first walk: std::priority_queue keeps
/// its "greatest" element on top, so comparing with BetterThan reversed
/// puts the best unexpanded candidate there.
struct WorseThan {
  bool operator()(const RecEntry& a, const RecEntry& b) const {
    return BetterThan(b, a);
  }
};

bool TestAndSet(std::vector<uint64_t>* bits, int64_t i) {
  uint64_t& word = (*bits)[static_cast<size_t>(i >> 6)];
  const uint64_t mask = uint64_t{1} << (i & 63);
  if ((word & mask) != 0) return true;
  word |= mask;
  return false;
}

}  // namespace

HnswRetriever::HnswRetriever(std::shared_ptr<const core::ServingModel> model,
                             std::shared_ptr<const SeenItems> seen,
                             int64_t ef_search)
    : model_(std::move(model)), seen_(std::move(seen)) {
  GNMR_CHECK(model_ != nullptr);
  GNMR_CHECK(model_->num_users > 0 && model_->num_items > 0);
  GNMR_CHECK(model_->embeddings.rows() ==
             model_->num_users + model_->num_items)
      << "inconsistent serving model";
  GNMR_CHECK(model_->has_hnsw())
      << "HnswRetriever needs a model with an HNSW graph "
         "(core::BuildHnswIndex)";
  hnsw_ = model_->hnsw;
  // Shape checks only: the O(edges) structural walk
  // (HnswIndex::CheckConsistent) already ran where the graph was produced
  // — BuildHnswIndex, LoadServingModel and SaveServingModel all validate —
  // and RecService constructs retrievers under its swap lock, so this
  // constructor must stay cheap.
  GNMR_CHECK_GE(hnsw_->num_levels, 1);
  GNMR_CHECK(hnsw_->entry_point >= 0 &&
             hnsw_->entry_point < model_->num_items);
  GNMR_CHECK_EQ(static_cast<int64_t>(hnsw_->neighbor_offsets.size()),
                hnsw_->num_levels * (model_->num_items + 1));
  if (seen_ != nullptr && !seen_->empty()) {
    GNMR_CHECK_LE(seen_->num_users(), model_->num_users);
  }
  if (ef_search <= 0) ef_search = tensor::kHnswDefaultEfSearch;
  ef_search_ = std::min(ef_search, model_->num_items);
}

std::vector<RecEntry> HnswRetriever::RetrieveOne(int64_t user,
                                                 int64_t k) const {
  GNMR_CHECK(user >= 0 && user < model_->num_users);
  GNMR_TRACE_SPAN("hnsw.search");
  const int64_t n = model_->num_items;
  const int64_t width = model_->embeddings.cols();
  const float* emb = model_->embeddings.data();
  const float* item_base = emb + model_->num_users * width;
  const float* urow = emb + user * width;
  const int64_t stride = n + 1;
  const int64_t* offsets = hnsw_->neighbor_offsets.data();
  const int64_t* adjacency = hnsw_->neighbors.data();
  const tensor::KernelBackend& backend = tensor::GetBackend();
  const SeenItems* seen = seen_.get();

  uint64_t hops = 0;
  uint64_t evals = 0;
  std::vector<int64_t> fresh;
  std::vector<float> scores;

  // Zoom-in: greedy descent with a beam of one. Each step scores the
  // current node's whole neighbor list and moves to its best entry while
  // that improves on the current node under BetterThan — the fixed total
  // order makes the path (and thus the level-0 entry) deterministic.
  RecEntry cur{hnsw_->entry_point,
               DotScore(urow, item_base + hnsw_->entry_point * width, width)};
  ++evals;
  for (int64_t level = hnsw_->num_levels - 1; level >= 1; --level) {
    bool moved = true;
    while (moved) {
      moved = false;
      const int64_t base = level * stride + cur.item;
      const int64_t begin = offsets[base];
      const int64_t count = offsets[base + 1] - begin;
      if (count == 0) break;
      ++hops;
      scores.resize(static_cast<size_t>(count));
      backend.QueryDotIndexed(urow, item_base, adjacency + begin,
                              scores.data(), count, width);
      evals += static_cast<uint64_t>(count);
      for (int64_t j = 0; j < count; ++j) {
        const RecEntry cand{adjacency[begin + j],
                            scores[static_cast<size_t>(j)]};
        if (BetterThan(cand, cur)) {
          cur = cand;
          moved = true;
        }
      }
    }
  }

  // Level-0 beam: best-first expansion bounded by ef candidates. The
  // working set `beam` ignores seen-filtering — dropping seen items from
  // the frontier would change which regions the walk explores and make
  // recall depend on the user's history — while the k-bounded output heap
  // applies it through the shared OfferToBoundedHeap, exactly like the
  // scan strategies.
  const int64_t ef = std::min(std::max(ef_search_, k), n);
  std::vector<uint64_t> visited(static_cast<size_t>((n + 63) / 64), 0);
  TestAndSet(&visited, cur.item);
  std::priority_queue<RecEntry, std::vector<RecEntry>, WorseThan> frontier;
  frontier.push(cur);
  std::vector<RecEntry> beam;
  beam.reserve(static_cast<size_t>(ef) + 1);
  OfferToBoundedHeap(&beam, ef, cur, nullptr, user);
  std::vector<RecEntry> out;
  out.reserve(static_cast<size_t>(k) + 1);
  OfferToBoundedHeap(&out, k, cur, seen, user);
  while (!frontier.empty()) {
    const RecEntry c = frontier.top();
    frontier.pop();
    // Termination: the best unexpanded candidate cannot beat the beam's
    // current worst, so no expansion can improve the kept set.
    if (static_cast<int64_t>(beam.size()) == ef &&
        !BetterThan(c, beam.front())) {
      break;
    }
    ++hops;
    const int64_t begin = offsets[c.item];
    const int64_t end = offsets[c.item + 1];
    fresh.clear();
    for (int64_t p = begin; p < end; ++p) {
      if (!TestAndSet(&visited, adjacency[p])) fresh.push_back(adjacency[p]);
    }
    if (fresh.empty()) continue;
    scores.resize(fresh.size());
    backend.QueryDotIndexed(urow, item_base, fresh.data(), scores.data(),
                            static_cast<int64_t>(fresh.size()), width);
    evals += static_cast<uint64_t>(fresh.size());
    for (size_t j = 0; j < fresh.size(); ++j) {
      const RecEntry cand{fresh[j], scores[j]};
      frontier.push(cand);
      OfferToBoundedHeap(&beam, ef, cand, nullptr, user);
      OfferToBoundedHeap(&out, k, cand, seen, user);
    }
  }
  std::sort(out.begin(), out.end(), BetterThan);

  requests_.fetch_add(1, std::memory_order_relaxed);
  hops_.fetch_add(hops, std::memory_order_relaxed);
  scanned_items_.fetch_add(evals, std::memory_order_relaxed);
  // Bandwidth: one float embedding row per distance evaluation (the
  // neighbor-id reads are noise next to the rows). No centroid/codes
  // terms — the graph IS the index.
  scanned_bytes_.fetch_add(evals * static_cast<uint64_t>(width) *
                               sizeof(float),
                           std::memory_order_relaxed);
  return out;
}

std::vector<RecEntry> HnswRetriever::RetrieveTopN(int64_t user,
                                                  int64_t k) const {
  GNMR_TRACE_SPAN("hnsw.retrieve");
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, model_->num_items);
  return RetrieveOne(user, k);
}

std::vector<std::vector<RecEntry>> HnswRetriever::RetrieveBatch(
    const std::vector<int64_t>& users, int64_t k) const {
  GNMR_TRACE_SPAN("hnsw.batch");
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, model_->num_items);
  const int64_t n = static_cast<int64_t>(users.size());
  std::vector<std::vector<RecEntry>> outs(static_cast<size_t>(n));
  const int64_t num_blocks = (n + kUserBlock - 1) / kUserBlock;
  // A single walk never shards (each hop depends on the last), so the
  // batch is pure outer parallelism over user blocks — the same fan-out
  // shape as IvfRetriever::RetrieveBatch.
  if (ItemShardingActive(ItemShardMode::kAuto) && num_blocks > 1) {
    tensor::ShardPool::Global()->Run(num_blocks, [&](int64_t b) {
      const int64_t start = b * kUserBlock;
      const int64_t count = std::min(kUserBlock, n - start);
      for (int64_t u = 0; u < count; ++u) {
        outs[static_cast<size_t>(start + u)] =
            RetrieveOne(users[static_cast<size_t>(start + u)], k);
      }
    });
    return outs;
  }
  for (int64_t i = 0; i < n; ++i) {
    outs[static_cast<size_t>(i)] = RetrieveOne(users[static_cast<size_t>(i)], k);
  }
  return outs;
}

RetrieverStats HnswRetriever::Stats() const {
  RetrieverStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.scanned_items = scanned_items_.load(std::memory_order_relaxed);
  out.scanned_bytes = scanned_bytes_.load(std::memory_order_relaxed);
  out.hops = hops_.load(std::memory_order_relaxed);
  return out;
}

std::unique_ptr<eval::Scorer> HnswRetriever::MakeScorer() const {
  return core::MakeSharedScorer(model_);
}

}  // namespace serve
}  // namespace gnmr
