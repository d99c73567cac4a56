#include "src/serve/ivf_retriever.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/kmeans.h"
#include "src/tensor/quantize.h"
#include "src/tensor/shard_plan.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"

namespace gnmr {
namespace serve {

namespace {
// Scattered candidate rows (and code rows) are scored through the backend
// in fixed-size blocks: one dispatch per block amortises the indirect
// call, and the stack score buffer stays cache-resident. Block boundaries
// cannot change results — every output element is an independent dot.
constexpr int64_t kScanBlock = 256;
}  // namespace

IvfRetriever::IvfRetriever(std::shared_ptr<const core::ServingModel> model,
                           std::shared_ptr<const SeenItems> seen,
                           int64_t nprobe, ItemShardMode shard_mode,
                           bool quantized, int64_t rerank_k)
    : model_(std::move(model)),
      seen_(std::move(seen)),
      shard_mode_(shard_mode) {
  GNMR_CHECK(model_ != nullptr);
  GNMR_CHECK(model_->num_users > 0 && model_->num_items > 0);
  GNMR_CHECK(model_->embeddings.rows() ==
             model_->num_users + model_->num_items)
      << "inconsistent serving model";
  GNMR_CHECK(model_->has_ivf())
      << "IvfRetriever needs a model with an IVF index "
         "(core::BuildIvfIndex)";
  ivf_ = model_->ivf;
  // Shape checks only: the O(num_items) structural walk
  // (IvfIndex::CheckConsistent) already ran where the index was produced
  // — BuildIvfIndex, LoadServingModel and SaveServingModel all validate —
  // and RecService constructs retrievers under its swap lock, so this
  // constructor must stay cheap.
  GNMR_CHECK_GE(ivf_->nlist(), 1);
  GNMR_CHECK_EQ(static_cast<int64_t>(ivf_->list_items.size()),
                model_->num_items);
  GNMR_CHECK(ivf_->centroids.rank() == 2 &&
             ivf_->centroids.rows() == ivf_->nlist() &&
             ivf_->centroids.cols() == model_->embeddings.cols())
      << "ivf centroid shape mismatch";
  if (seen_ != nullptr && !seen_->empty()) {
    GNMR_CHECK_LE(seen_->num_users(), model_->num_users);
  }
  if (nprobe <= 0) nprobe = tensor::kIvfDefaultNprobe;
  nprobe_ = std::min(nprobe, ivf_->nlist());
  // The quantized scan needs codes; without them the request degrades to
  // the float scan (quantized() exposes the effective state).
  quantized_ = quantized && ivf_->has_codes();
  if (rerank_k <= 0) rerank_k = tensor::kIvfDefaultRerankK;
  rerank_k_ = std::min(rerank_k, model_->num_items);
}

std::vector<int64_t> IvfRetriever::ProbeClusters(int64_t user) const {
  GNMR_TRACE_SPAN("ivf.probe");
  const int64_t width = model_->embeddings.cols();
  const float* urow = model_->embeddings.data() + user * width;
  const float* centroids = ivf_->centroids.data();
  const int64_t nlist = ivf_->nlist();
  // Inner-product centroid scores through the backend's QueryDot (the same
  // lane-partial accumulation as item scoring); selection is a pure
  // function of them, so the probe set is deterministic across backends
  // and worker counts.
  std::vector<float> scores(static_cast<size_t>(nlist));
  tensor::GetBackend().QueryDot(urow, centroids, scores.data(), nlist, width);
  std::vector<std::pair<float, int64_t>> ranked(static_cast<size_t>(nlist));
  for (int64_t c = 0; c < nlist; ++c) {
    ranked[static_cast<size_t>(c)] = {scores[static_cast<size_t>(c)], c};
  }
  // Only the first nprobe_ winners matter: partial_sort under the same
  // (score desc, id asc) strict weak ordering yields the identical probe
  // set and order at O(nlist log nprobe) instead of a full sort — this is
  // the per-request hot path, and nlist grows as ~sqrt(items).
  std::partial_sort(ranked.begin(), ranked.begin() + nprobe_, ranked.end(),
                    [](const std::pair<float, int64_t>& a,
                       const std::pair<float, int64_t>& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int64_t> probes(static_cast<size_t>(nprobe_));
  for (int64_t p = 0; p < nprobe_; ++p) {
    probes[static_cast<size_t>(p)] = ranked[static_cast<size_t>(p)].second;
  }
  return probes;
}

void IvfRetriever::ScanCandidates(int64_t user, const int64_t* candidates,
                                  int64_t count, int64_t k,
                                  std::vector<RecEntry>* heap) const {
  // Per posting-list (or per shard range) scan unit; nests under
  // ivf.retrieve in the trace the way exact.scan nests under
  // exact.retrieve.
  GNMR_TRACE_SPAN("ivf.scan");
  const int64_t width = model_->embeddings.cols();
  const float* emb = model_->embeddings.data();
  const float* item_base = emb + model_->num_users * width;
  const float* urow = emb + user * width;
  const SeenItems* seen = seen_.get();

  // The backend's QueryDotIndexed scores candidates exactly as the exact
  // scan's QueryDot does (one lane-partial sum per row); the kept set is
  // the range's top-k under the BetterThan total order, so it does not
  // depend on the candidate traversal order — which is what makes
  // posting-list shards mergeable and nprobe == nlist bit-identical to
  // the full catalogue scan. Only the item indirection differs from
  // RetrieveBlock: candidate rows are scattered, not a contiguous tile.
  heap->reserve(static_cast<size_t>(k) + 1);
  const tensor::KernelBackend& backend = tensor::GetBackend();
  float scores[kScanBlock];
  for (int64_t p = 0; p < count; p += kScanBlock) {
    const int64_t block = std::min(kScanBlock, count - p);
    backend.QueryDotIndexed(urow, item_base, candidates + p, scores, block,
                            width);
    for (int64_t q = 0; q < block; ++q) {
      OfferToBoundedHeap(heap, k, RecEntry{candidates[p + q], scores[q]},
                         seen, user);
    }
  }
}

std::vector<RecEntry> IvfRetriever::RetrieveOneQuantized(
    int64_t user, int64_t k, const std::vector<int64_t>& probes) const {
  GNMR_TRACE_SPAN("ivf.qscan");
  const int64_t width = model_->embeddings.cols();
  const float* emb = model_->embeddings.data();
  const float* item_base = emb + model_->num_users * width;
  const float* urow = emb + user * width;
  const SeenItems* seen = seen_.get();
  const tensor::KernelBackend& backend = tensor::GetBackend();

  int64_t total = 0;
  for (int64_t c : probes) total += ivf_->ListSize(c);

  // Phase 1: scan the probed lists' int8 codes into a bounded pool of the
  // best approximate candidates. The integer dots are exact on every
  // backend and the dequantization is one fixed float expression
  // (quant::I8DotScore's multiply order), so the pool — a top-pool_k set
  // under the BetterThan total order — is deterministic across backends
  // and traversal-order independent. Codes sit in posting-list position
  // order, so each probed list streams contiguously.
  const tensor::quant::QuantizedQuery q =
      tensor::quant::QuantizeQueryI8(urow, width);
  const int64_t pool_k = std::max(rerank_k_, k);
  std::vector<RecEntry> pool;
  pool.reserve(static_cast<size_t>(pool_k) + 1);
  int32_t dots[kScanBlock];
  for (int64_t c : probes) {
    const int64_t begin = ivf_->list_offsets[static_cast<size_t>(c)];
    const int64_t size = ivf_->ListSize(c);
    const int8_t* codes = ivf_->codes.data() + begin * width;
    const float* scales = ivf_->code_scales.data() + begin;
    const int64_t* items = ivf_->list_items.data() + begin;
    for (int64_t p = 0; p < size; p += kScanBlock) {
      const int64_t block = std::min(kScanBlock, size - p);
      backend.I8QueryDot(q.codes.data(), codes + p * width, dots, block,
                         width);
      for (int64_t j = 0; j < block; ++j) {
        const float approx =
            static_cast<float>(dots[j]) * (q.scale * scales[p + j]);
        OfferToBoundedHeap(&pool, pool_k, RecEntry{items[p + j], approx},
                           seen, user);
      }
    }
  }

  // Phase 2: exact float rerank of the survivors — the same lane-partial
  // scores and BetterThan order as the float scan, so quantization can
  // only affect which items reached the pool, never how survivors rank.
  const int64_t reranked = static_cast<int64_t>(pool.size());
  std::vector<RecEntry> out;
  if (reranked > 0) {
    std::vector<int64_t> ids(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) ids[i] = pool[i].item;
    std::vector<float> exact(pool.size());
    for (int64_t p = 0; p < reranked; p += kScanBlock) {
      const int64_t block = std::min(kScanBlock, reranked - p);
      backend.QueryDotIndexed(urow, item_base, ids.data() + p,
                              exact.data() + p, block, width);
    }
    out.reserve(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      out.push_back(RecEntry{ids[i], exact[i]});
    }
    std::sort(out.begin(), out.end(), BetterThan);
    if (static_cast<int64_t>(out.size()) > k) {
      out.resize(static_cast<size_t>(k));
    }
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  probed_clusters_.fetch_add(static_cast<uint64_t>(probes.size()),
                             std::memory_order_relaxed);
  scanned_items_.fetch_add(static_cast<uint64_t>(total),
                           std::memory_order_relaxed);
  // Bandwidth: all nlist centroid rows (the probe), then width code bytes
  // + one float scale per scanned item, then a full float row per
  // reranked survivor. The code phase's share is also tracked on its own
  // so the ~4x cut is observable directly.
  const uint64_t code_bytes = static_cast<uint64_t>(total) *
                              (static_cast<uint64_t>(width) + sizeof(float));
  scanned_code_bytes_.fetch_add(code_bytes, std::memory_order_relaxed);
  reranked_items_.fetch_add(static_cast<uint64_t>(reranked),
                            std::memory_order_relaxed);
  scanned_bytes_.fetch_add(
      static_cast<uint64_t>(ivf_->nlist() * width) * sizeof(float) +
          code_bytes +
          static_cast<uint64_t>(reranked * width) * sizeof(float),
      std::memory_order_relaxed);
  return out;
}

std::vector<RecEntry> IvfRetriever::RetrieveOne(int64_t user, int64_t k,
                                                bool allow_shard) const {
  GNMR_CHECK(user >= 0 && user < model_->num_users);
  const std::vector<int64_t> probes = ProbeClusters(user);
  if (quantized_) return RetrieveOneQuantized(user, k, probes);

  int64_t total = 0;
  for (int64_t c : probes) total += ivf_->ListSize(c);
  requests_.fetch_add(1, std::memory_order_relaxed);
  probed_clusters_.fetch_add(static_cast<uint64_t>(probes.size()),
                             std::memory_order_relaxed);
  scanned_items_.fetch_add(static_cast<uint64_t>(total),
                           std::memory_order_relaxed);
  // Bytes streamed: the probed candidates' item rows plus every centroid
  // row read by ProbeClusters (the probe scans all nlist centroids).
  const int64_t width = model_->embeddings.cols();
  scanned_bytes_.fetch_add(
      static_cast<uint64_t>((total + ivf_->nlist()) * width) * sizeof(float),
      std::memory_order_relaxed);

  std::vector<RecEntry> out;
  if (total == 0) return out;
  if (allow_shard && ItemShardingActive(shard_mode_)) {
    // One Global() snapshot serves both sizing and dispatch, and pins the
    // pool against a concurrent SetShardWorkers swap.
    std::shared_ptr<tensor::ShardPool> pool = tensor::ShardPool::Global();
    tensor::ShardPlan plan = tensor::ShardPlan::Uniform(
        total, pool->workers(), tensor::kShardMinItemsPerShard);
    const int64_t num_shards = plan.num_shards();
    if (num_shards > 1) {
      // Only the sharded path pays for a flat candidate copy: the plan
      // cuts plain [begin, end) ranges, which need contiguous storage
      // spanning all probed lists.
      std::vector<int64_t> candidates;
      candidates.reserve(static_cast<size_t>(total));
      for (int64_t c : probes) {
        const int64_t begin = ivf_->list_offsets[static_cast<size_t>(c)];
        const int64_t end = ivf_->list_offsets[static_cast<size_t>(c) + 1];
        candidates.insert(candidates.end(), ivf_->list_items.begin() + begin,
                          ivf_->list_items.begin() + end);
      }
      // Per-shard heaps stay unsorted; MergeShardTopK sorts the union.
      std::vector<std::vector<RecEntry>> parts(
          static_cast<size_t>(num_shards));
      pool->Run(num_shards, [&](int64_t s) {
        const tensor::ShardRange& r = plan.shard(s);
        ScanCandidates(user, candidates.data() + r.begin, r.rows(), k,
                       &parts[static_cast<size_t>(s)]);
      });
      return MergeShardTopK(&parts, k);
    }
  }
  // Unsharded: feed each probed posting list through one bounded heap in
  // place — no per-request candidate copy.
  for (int64_t c : probes) {
    ScanCandidates(user,
                   ivf_->list_items.data() +
                       ivf_->list_offsets[static_cast<size_t>(c)],
                   ivf_->ListSize(c), k, &out);
  }
  std::sort(out.begin(), out.end(), BetterThan);
  return out;
}

std::vector<RecEntry> IvfRetriever::RetrieveTopN(int64_t user,
                                                 int64_t k) const {
  GNMR_TRACE_SPAN("ivf.retrieve");
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, model_->num_items);
  return RetrieveOne(user, k, /*allow_shard=*/true);
}

std::vector<std::vector<RecEntry>> IvfRetriever::RetrieveBatch(
    const std::vector<int64_t>& users, int64_t k) const {
  GNMR_TRACE_SPAN("ivf.batch");
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, model_->num_items);
  const int64_t n = static_cast<int64_t>(users.size());
  std::vector<std::vector<RecEntry>> outs(static_cast<size_t>(n));
  const int64_t num_blocks = (n + kUserBlock - 1) / kUserBlock;
  // Every user probes a different cluster set, so batching buys outer
  // parallelism only; each block's users run the inline (unsharded)
  // single-user path so one dispatch level does all the fanning out.
  if (ItemShardingActive(shard_mode_)) {
    if (num_blocks == 1) {
      // Too few users to fan blocks out: let each user's scan shard its
      // own candidate range instead, so the pool still gets work.
      for (int64_t i = 0; i < n; ++i) {
        outs[static_cast<size_t>(i)] = RetrieveOne(
            users[static_cast<size_t>(i)], k, /*allow_shard=*/true);
      }
      return outs;
    }
    tensor::ShardPool::Global()->Run(num_blocks, [&](int64_t b) {
      const int64_t start = b * kUserBlock;
      const int64_t count = std::min(kUserBlock, n - start);
      for (int64_t u = 0; u < count; ++u) {
        outs[static_cast<size_t>(start + u)] = RetrieveOne(
            users[static_cast<size_t>(start + u)], k, /*allow_shard=*/false);
      }
    });
    return outs;
  }
  for (int64_t i = 0; i < n; ++i) {
    outs[static_cast<size_t>(i)] =
        RetrieveOne(users[static_cast<size_t>(i)], k, /*allow_shard=*/false);
  }
  return outs;
}

RetrieverStats IvfRetriever::Stats() const {
  RetrieverStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.scanned_items = scanned_items_.load(std::memory_order_relaxed);
  out.scanned_bytes = scanned_bytes_.load(std::memory_order_relaxed);
  out.probed_clusters = probed_clusters_.load(std::memory_order_relaxed);
  out.scanned_code_bytes =
      scanned_code_bytes_.load(std::memory_order_relaxed);
  out.reranked_items = reranked_items_.load(std::memory_order_relaxed);
  return out;
}

std::unique_ptr<eval::Scorer> IvfRetriever::MakeScorer() const {
  return core::MakeSharedScorer(model_);
}

}  // namespace serve

namespace core {

util::Status BuildIvfIndex(ServingModel* model, int64_t nlist,
                           bool quantize) {
  GNMR_CHECK(model != nullptr);
  if (model->embeddings.empty() ||
      model->embeddings.rows() != model->num_users + model->num_items) {
    return util::Status::InvalidArgument("inconsistent serving model");
  }
  if (nlist <= 0) nlist = tensor::kIvfDefaultNlist;
  nlist = std::min(nlist, model->num_items);

  const int64_t width = model->embeddings.cols();
  // Read through const data(): the model may be view-backed (mmap), in
  // which case the mutable accessor would abort.
  const float* item_rows =
      std::as_const(model->embeddings).data() + model->num_users * width;
  tensor::KMeansOptions options;
  options.max_iters = tensor::kIvfKMeansMaxIters;
  tensor::KMeansResult clusters =
      tensor::KMeansRows(item_rows, model->num_items, width, nlist, options);

  auto ivf = std::make_shared<IvfIndex>();
  ivf->centroids = std::move(clusters.centroids);
  std::vector<int64_t> list_offsets(static_cast<size_t>(nlist) + 1, 0);
  for (int64_t c = 0; c < nlist; ++c) {
    list_offsets[static_cast<size_t>(c) + 1] =
        list_offsets[static_cast<size_t>(c)] +
        clusters.sizes[static_cast<size_t>(c)];
  }
  // Counting sort by cluster: walking items in ascending id order makes
  // each posting list ascending by construction.
  std::vector<int64_t> list_items(static_cast<size_t>(model->num_items));
  std::vector<int64_t> cursor(list_offsets.begin(), list_offsets.end() - 1);
  for (int64_t item = 0; item < model->num_items; ++item) {
    const int64_t c = clusters.assignments[static_cast<size_t>(item)];
    list_items[static_cast<size_t>(cursor[static_cast<size_t>(c)]++)] = item;
  }
  ivf->list_offsets = std::move(list_offsets);
  ivf->list_items = std::move(list_items);
  if (quantize) {
    // Codes live in posting-list position order so the serving scan
    // streams each probed list contiguously: position pos quantizes the
    // embedding row of item list_items[pos].
    std::vector<int8_t> codes(
        static_cast<size_t>(model->num_items * width));
    std::vector<float> scales(static_cast<size_t>(model->num_items));
    for (int64_t pos = 0; pos < model->num_items; ++pos) {
      const int64_t item = ivf->list_items[static_cast<size_t>(pos)];
      scales[static_cast<size_t>(pos)] = tensor::quant::QuantizeRowI8(
          item_rows + item * width, width,
          codes.data() + pos * width);
    }
    ivf->codes = std::move(codes);
    ivf->code_scales = std::move(scales);
  }
  ivf->CheckConsistent(model->num_items, width);
  model->ivf = std::move(ivf);
  return util::Status::OK();
}

}  // namespace core
}  // namespace gnmr
