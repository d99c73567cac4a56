#include "src/serve/exact_retriever.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_plan.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"

namespace gnmr {
namespace serve {

ExactRetriever::ExactRetriever(std::shared_ptr<const core::ServingModel> model,
                               std::shared_ptr<const SeenItems> seen,
                               ItemShardMode shard_mode)
    : model_(std::move(model)),
      seen_(std::move(seen)),
      shard_mode_(shard_mode) {
  GNMR_CHECK(model_ != nullptr);
  GNMR_CHECK(model_->num_users > 0 && model_->num_items > 0);
  GNMR_CHECK(model_->embeddings.rows() ==
             model_->num_users + model_->num_items)
      << "inconsistent serving model";
  if (seen_ != nullptr && !seen_->empty()) {
    GNMR_CHECK_LE(seen_->num_users(), model_->num_users);
  }
}

void ExactRetriever::RetrieveBlock(const int64_t* users, int64_t count,
                                   int64_t k, int64_t item_begin,
                                   int64_t item_end,
                                   std::vector<RecEntry>* outs) const {
  // The innermost scan unit — on a sharded retrieval each pool worker
  // opens its own exact.scan, so the trace shows the per-shard fan-out
  // nested under the retrieve span that dispatched it.
  GNMR_TRACE_SPAN("exact.scan");
  GNMR_CHECK(count >= 1 && count <= kUserBlock);
  GNMR_CHECK(item_begin >= 0 && item_begin <= item_end &&
             item_end <= model_->num_items);
  const int64_t num_users = model_->num_users;
  const int64_t width = model_->embeddings.cols();
  const float* emb = model_->embeddings.data();
  const float* item_base = emb + num_users * width;
  const SeenItems* seen = seen_.get();
  const tensor::KernelBackend& backend = tensor::GetBackend();

  // Worst-on-top bounded heaps: with BetterThan as the "less" comparator
  // the std heap front is the entry no other beats, i.e. the current worst.
  std::vector<RecEntry> heaps[kUserBlock];
  for (int64_t u = 0; u < count; ++u) {
    GNMR_CHECK(users[u] >= 0 && users[u] < num_users);
    heaps[u].reserve(static_cast<size_t>(k) + 1);
  }

  float scores[kUserBlock * kItemBlock];
  for (int64_t i0 = item_begin; i0 < item_end; i0 += kItemBlock) {
    const int64_t tile = std::min(kItemBlock, item_end - i0);
    // Blocked matmul tile: `count` user rows x `tile` item rows, scored
    // through the active backend's QueryDot. Scoring every user in the
    // block against the same item tile keeps the tile resident in cache;
    // the backend contract (one lane-partial sum per output element) makes
    // every score bit-identical to DotScore and independent of where the
    // item range starts — which is what makes shard outputs mergeable.
    for (int64_t u = 0; u < count; ++u) {
      const float* urow = emb + users[u] * width;
      backend.QueryDot(urow, item_base + i0 * width, scores + u * kItemBlock,
                       tile, width);
    }
    for (int64_t u = 0; u < count; ++u) {
      std::vector<RecEntry>& heap = heaps[u];
      const float* srow = scores + u * kItemBlock;
      for (int64_t j = 0; j < tile; ++j) {
        OfferToBoundedHeap(&heap, k, RecEntry{i0 + j, srow[j]}, seen,
                           users[u]);
      }
    }
  }

  for (int64_t u = 0; u < count; ++u) {
    std::sort(heaps[u].begin(), heaps[u].end(), BetterThan);
    outs[u] = std::move(heaps[u]);
  }
}

void ExactRetriever::RetrieveBlockItemSharded(
    const int64_t* users, int64_t count, int64_t k,
    std::vector<RecEntry>* outs) const {
  const int64_t num_items = model_->num_items;
  // One Global() snapshot serves both sizing and dispatch, and pins the
  // pool against a concurrent SetShardWorkers swap.
  std::shared_ptr<tensor::ShardPool> pool = tensor::ShardPool::Global();
  tensor::ShardPlan plan = tensor::ShardPlan::Uniform(
      num_items, pool->workers(), tensor::kShardMinItemsPerShard);
  const int64_t num_shards = plan.num_shards();
  if (num_shards <= 1) {
    RetrieveBlock(users, count, k, 0, num_items, outs);
    return;
  }
  // Each worker scans its own catalogue range for the whole user block
  // with bounded heaps (candidates[s][u]), then the per-shard winners
  // merge per user.
  std::vector<std::vector<std::vector<RecEntry>>> candidates(
      static_cast<size_t>(num_shards),
      std::vector<std::vector<RecEntry>>(static_cast<size_t>(count)));
  pool->Run(num_shards, [&](int64_t s) {
    const tensor::ShardRange& r = plan.shard(s);
    RetrieveBlock(users, count, k, r.begin, r.end,
                  candidates[static_cast<size_t>(s)].data());
  });
  std::vector<std::vector<RecEntry>> parts(static_cast<size_t>(num_shards));
  for (int64_t u = 0; u < count; ++u) {
    for (int64_t s = 0; s < num_shards; ++s) {
      parts[static_cast<size_t>(s)] = std::move(
          candidates[static_cast<size_t>(s)][static_cast<size_t>(u)]);
    }
    outs[u] = MergeShardTopK(&parts, k);
  }
}

std::vector<RecEntry> ExactRetriever::RetrieveTopN(int64_t user,
                                                   int64_t k) const {
  GNMR_TRACE_SPAN("exact.retrieve");
  GNMR_CHECK_GE(k, 1);
  const int64_t num_items = model_->num_items;
  k = std::min(k, num_items);
  requests_.fetch_add(1, std::memory_order_relaxed);
  scanned_items_.fetch_add(static_cast<uint64_t>(num_items),
                           std::memory_order_relaxed);
  scanned_bytes_.fetch_add(
      static_cast<uint64_t>(num_items * model_->embeddings.cols()) *
          sizeof(float),
      std::memory_order_relaxed);
  std::vector<RecEntry> out;
  if (ItemShardingActive(shard_mode_)) {
    RetrieveBlockItemSharded(&user, 1, k, &out);
  } else {
    RetrieveBlock(&user, 1, k, 0, num_items, &out);
  }
  return out;
}

std::vector<std::vector<RecEntry>> ExactRetriever::RetrieveBatch(
    const std::vector<int64_t>& users, int64_t k) const {
  GNMR_TRACE_SPAN("exact.batch");
  GNMR_CHECK_GE(k, 1);
  const int64_t num_items = model_->num_items;
  k = std::min(k, num_items);
  const int64_t n = static_cast<int64_t>(users.size());
  requests_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  scanned_items_.fetch_add(static_cast<uint64_t>(n * num_items),
                           std::memory_order_relaxed);
  scanned_bytes_.fetch_add(
      static_cast<uint64_t>(n * num_items * model_->embeddings.cols()) *
          sizeof(float),
      std::memory_order_relaxed);
  std::vector<std::vector<RecEntry>> outs(static_cast<size_t>(n));
  const int64_t num_blocks = (n + kUserBlock - 1) / kUserBlock;
  // User blocks are independent (each writes its own output slots), so the
  // block loop parallelizes without changing any per-user result.
  if (ItemShardingActive(shard_mode_)) {
    if (num_blocks == 1) {
      // Too few users to fan blocks out (the common shape of a warm
      // RecService miss list): shard the ITEM range once for the whole
      // block instead, so each item tile is streamed a single time for
      // all n users and the pool is dispatched once — not a full
      // catalogue pass per user.
      RetrieveBlockItemSharded(users.data(), n, k, outs.data());
      return outs;
    }
    // Sharded execution: fan whole user blocks over the shard pool — with
    // many users in flight, outer parallelism keeps every worker on its
    // own block instead of splitting each block's item range. On a pool
    // worker (nested dispatch) this degrades to the inline loop.
    tensor::ShardPool::Global()->Run(num_blocks, [&](int64_t b) {
      const int64_t start = b * kUserBlock;
      const int64_t count = std::min(kUserBlock, n - start);
      RetrieveBlock(users.data() + start, count, k, 0, num_items,
                    outs.data() + start);
    });
    return outs;
  }
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t start = b * kUserBlock;
    const int64_t count = std::min(kUserBlock, n - start);
    RetrieveBlock(users.data() + start, count, k, 0, num_items,
                  outs.data() + start);
  }
  return outs;
}

RetrieverStats ExactRetriever::Stats() const {
  RetrieverStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.scanned_items = scanned_items_.load(std::memory_order_relaxed);
  out.scanned_bytes = scanned_bytes_.load(std::memory_order_relaxed);
  return out;
}

std::unique_ptr<eval::Scorer> ExactRetriever::MakeScorer() const {
  return core::MakeSharedScorer(model_);
}

}  // namespace serve
}  // namespace gnmr
