#include "src/serve/hnsw_retriever.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

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

namespace {

// The splitmix64 output mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// splitmix64 of (item, kHnswLevelSeed): the level draw must be a pure
// per-item function — independent of insertion order, backend and every
// runtime knob — so the layer structure is reproducible by construction.
uint64_t HnswItemHash(int64_t item) {
  return Mix64(static_cast<uint64_t>(item) + tensor::kHnswLevelSeed);
}

// Geometric level assignment: floor(-ln(u) / ln(m)) with u uniform in
// (0, 1] from the item hash — each level keeps ~1/m of the one below.
int64_t HnswLevelForItem(int64_t item, double inv_log_m) {
  const uint64_t bits = HnswItemHash(item) >> 11;  // top 53 bits
  const double u =
      (static_cast<double>(bits) + 1.0) * (1.0 / 9007199254740992.0);
  const double level = -std::log(u) * inv_log_m;
  return std::min(static_cast<int64_t>(level), tensor::kHnswMaxLevel);
}

// Offline HNSW construction state. Every distance is an inner-product
// score through KernelBackend::QueryDotIndexed (single dots via DotScore —
// the identical accumulation), ranked under BetterThan with the same
// bounded heap the search uses, so the finished graph is bit-identical on
// every backend.
class HnswBuilder {
 public:
  HnswBuilder(const float* item_rows, int64_t n, int64_t width, int64_t m,
              int64_t ef_construction)
      : rows_(item_rows),
        n_(n),
        width_(width),
        m_(m),
        ef_(ef_construction),
        levels_(static_cast<size_t>(n)),
        visited_(static_cast<size_t>(n), 0) {
    const double inv_log_m = 1.0 / std::log(static_cast<double>(m_));
    int64_t max_level = 0;
    for (int64_t i = 0; i < n_; ++i) {
      levels_[static_cast<size_t>(i)] = HnswLevelForItem(i, inv_log_m);
      max_level = std::max(max_level, levels_[static_cast<size_t>(i)]);
    }
    adj_.resize(static_cast<size_t>(max_level) + 1);
    for (auto& level : adj_) level.resize(static_cast<size_t>(n));
  }

  void InsertAll() {
    // Hash-shuffled insertion order (a second splitmix64 pass over the
    // level hash, ties by id): catalogues often lay correlated items out
    // contiguously — think one category's items in one id range — and
    // inserting them in id order starts every such region with no graph
    // structure near it, fragmenting the region into components the
    // search cannot cross. Shuffling makes every insertion prefix a
    // uniform sample of the catalogue. Still a pure function of the item
    // ids, so the graph stays reproducible by construction.
    std::vector<int64_t> order(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) order[static_cast<size_t>(i)] = i;
    std::vector<uint64_t> keys(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) {
      keys[static_cast<size_t>(i)] =
          Mix64(HnswItemHash(i) + 0x9e3779b97f4a7c15ull);
    }
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      const uint64_t ka = keys[static_cast<size_t>(a)];
      const uint64_t kb = keys[static_cast<size_t>(b)];
      if (ka != kb) return ka < kb;
      return a < b;
    });
    for (int64_t q : order) Insert(q);
  }

  int64_t entry_point() const { return entry_; }
  int64_t num_levels() const { return static_cast<int64_t>(adj_.size()); }

  /// Flattens the adjacency into the persisted CSR form: per-level rows of
  /// ascending neighbor ids, levels tiled back to back.
  void Flatten(std::vector<int64_t>* offsets,
               std::vector<int64_t>* neighbors) const {
    const int64_t stride = n_ + 1;
    offsets->assign(static_cast<size_t>(num_levels() * stride), 0);
    size_t total = 0;
    for (const auto& level : adj_) {
      for (const auto& list : level) total += list.size();
    }
    neighbors->clear();
    neighbors->reserve(total);
    int64_t pos = 0;
    for (int64_t l = 0; l < num_levels(); ++l) {
      for (int64_t i = 0; i < n_; ++i) {
        (*offsets)[static_cast<size_t>(l * stride + i)] = pos;
        std::vector<int64_t> sorted = adj_[static_cast<size_t>(l)]
                                          [static_cast<size_t>(i)];
        std::sort(sorted.begin(), sorted.end());
        neighbors->insert(neighbors->end(), sorted.begin(), sorted.end());
        pos += static_cast<int64_t>(sorted.size());
      }
      (*offsets)[static_cast<size_t>(l * stride + n_)] = pos;
    }
  }

 private:
  const float* Row(int64_t item) const { return rows_ + item * width_; }

  void Insert(int64_t q) {
    GNMR_TRACE_SPAN("hnsw.insert");
    const int64_t q_level = levels_[static_cast<size_t>(q)];
    if (entry_ < 0) {  // the first node seeds every layer it occupies
      entry_ = q;
      max_level_ = q_level;
      return;
    }
    const float* qrow = Row(q);
    std::vector<RecEntry> eps = {
        {entry_, DotScore(qrow, Row(entry_), width_)}};
    // Greedy descent through the layers above q: ef = 1 keeps only the
    // closest node per layer, the classic zoom-in phase.
    for (int64_t l = max_level_; l > q_level; --l) {
      eps = SearchLayer(qrow, eps, 1, l);
    }
    for (int64_t l = std::min(q_level, max_level_); l >= 0; --l) {
      std::vector<RecEntry> found = SearchLayer(qrow, eps, ef_, l);
      const int64_t cap = l == 0 ? 2 * m_ : m_;
      const std::vector<RecEntry> chosen = SelectNeighbors(found, m_);
      std::vector<int64_t>& q_list =
          adj_[static_cast<size_t>(l)][static_cast<size_t>(q)];
      for (const RecEntry& s : chosen) {
        q_list.push_back(s.item);
        LinkBack(l, s.item, q, cap);
      }
      eps = std::move(found);
    }
    if (q_level > max_level_) {
      entry_ = q;
      max_level_ = q_level;
    }
  }

  /// Best-first beam search over one layer: expands the closest frontier
  /// node until the best unexpanded candidate cannot improve the
  /// ef-bounded result set. Returns the results sorted best first.
  std::vector<RecEntry> SearchLayer(const float* qrow,
                                    const std::vector<RecEntry>& entries,
                                    int64_t ef, int64_t level) {
    ++epoch_;
    std::priority_queue<RecEntry, std::vector<RecEntry>, WorseThan> frontier;
    std::vector<RecEntry> best;  // worst-on-top bounded heap of size ef
    best.reserve(static_cast<size_t>(ef) + 1);
    for (const RecEntry& e : entries) {
      if (visited_[static_cast<size_t>(e.item)] == epoch_) continue;
      visited_[static_cast<size_t>(e.item)] = epoch_;
      frontier.push(e);
      OfferToBoundedHeap(&best, ef, e, nullptr, 0);
    }
    const auto& level_adj = adj_[static_cast<size_t>(level)];
    std::vector<int64_t> fresh;
    std::vector<float> scores;
    while (!frontier.empty()) {
      const RecEntry c = frontier.top();
      frontier.pop();
      if (static_cast<int64_t>(best.size()) == ef &&
          !BetterThan(c, best.front())) {
        break;
      }
      fresh.clear();
      for (int64_t nb : level_adj[static_cast<size_t>(c.item)]) {
        if (visited_[static_cast<size_t>(nb)] == epoch_) continue;
        visited_[static_cast<size_t>(nb)] = epoch_;
        fresh.push_back(nb);
      }
      if (fresh.empty()) continue;
      scores.resize(fresh.size());
      tensor::GetBackend().QueryDotIndexed(
          qrow, rows_, fresh.data(), scores.data(),
          static_cast<int64_t>(fresh.size()), width_);
      for (size_t i = 0; i < fresh.size(); ++i) {
        const RecEntry cand{fresh[i], scores[i]};
        frontier.push(cand);
        OfferToBoundedHeap(&best, ef, cand, nullptr, 0);
      }
    }
    std::sort(best.begin(), best.end(), BetterThan);
    return best;
  }

  /// The heuristic prune (Malkov & Yashunin, Algorithm 4) in inner-product
  /// form: walking candidates best first (each scored against the node
  /// being linked), keep c only when no already-selected s is closer to c
  /// than that node is (dot(c, s) <= c.score) — selected neighbors spread
  /// across directions instead of crowding one cluster. Dominated
  /// candidates backfill remaining slots (keep-pruned-connections),
  /// preserving degree for connectivity.
  std::vector<RecEntry> SelectNeighbors(const std::vector<RecEntry>& cands,
                                        int64_t cap) const {
    std::vector<RecEntry> selected;
    selected.reserve(static_cast<size_t>(cap));
    for (const RecEntry& c : cands) {
      if (static_cast<int64_t>(selected.size()) == cap) break;
      const float* crow = Row(c.item);
      bool keep = true;
      for (const RecEntry& s : selected) {
        if (DotScore(crow, Row(s.item), width_) > c.score) {
          keep = false;
          break;
        }
      }
      if (keep) selected.push_back(c);
    }
    if (static_cast<int64_t>(selected.size()) < cap) {
      for (const RecEntry& c : cands) {
        if (static_cast<int64_t>(selected.size()) == cap) break;
        bool present = false;
        for (const RecEntry& s : selected) {
          if (s.item == c.item) {
            present = true;
            break;
          }
        }
        if (!present) selected.push_back(c);
      }
    }
    return selected;
  }

  /// Adds the back edge s -> q, re-pruning s's list when it exceeds the
  /// level cap (scored against s, same heuristic as the forward edges).
  void LinkBack(int64_t level, int64_t s, int64_t q, int64_t cap) {
    std::vector<int64_t>& list =
        adj_[static_cast<size_t>(level)][static_cast<size_t>(s)];
    list.push_back(q);
    if (static_cast<int64_t>(list.size()) <= cap) return;
    std::vector<float> scores(list.size());
    tensor::GetBackend().QueryDotIndexed(Row(s), rows_, list.data(),
                                         scores.data(),
                                         static_cast<int64_t>(list.size()),
                                         width_);
    std::vector<RecEntry> cands(list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      cands[i] = {list[i], scores[i]};
    }
    std::sort(cands.begin(), cands.end(), BetterThan);
    const std::vector<RecEntry> kept = SelectNeighbors(cands, cap);
    list.clear();
    for (const RecEntry& c : kept) list.push_back(c.item);
  }

  const float* rows_;
  const int64_t n_;
  const int64_t width_;
  const int64_t m_;
  const int64_t ef_;
  std::vector<int64_t> levels_;
  /// adj_[level][item] = current neighbor ids (unordered during build).
  std::vector<std::vector<std::vector<int64_t>>> adj_;
  /// Epoch-stamped visited set: one int64 compare per lookup, no O(n)
  /// clear between the ~n * levels SearchLayer calls of a build.
  std::vector<int64_t> visited_;
  int64_t epoch_ = 0;
  int64_t entry_ = -1;
  int64_t max_level_ = 0;
};

}  // namespace

}  // namespace serve

namespace core {

util::Status BuildHnswIndex(ServingModel* model, int64_t m,
                            int64_t ef_construction) {
  GNMR_CHECK(model != nullptr);
  if (model->embeddings.empty() ||
      model->embeddings.rows() != model->num_users + model->num_items) {
    return util::Status::InvalidArgument("inconsistent serving model");
  }
  GNMR_TRACE_SPAN("hnsw.build");
  if (m <= 0) m = tensor::kHnswDefaultM;
  // m = 1 would make the level draw degenerate (ln 1 = 0) and the graph a
  // chain; two neighbors is the meaningful floor.
  m = std::max<int64_t>(m, 2);
  if (ef_construction <= 0) {
    ef_construction = tensor::kHnswDefaultEfConstruction;
  }
  // The beam must at least cover one full neighbor selection.
  ef_construction = std::max(ef_construction, m);

  const int64_t width = model->embeddings.cols();
  // Read through const data(): the model may be view-backed (mmap), in
  // which case the mutable accessor would abort.
  const float* item_rows =
      std::as_const(model->embeddings).data() + model->num_users * width;
  serve::HnswBuilder builder(item_rows, model->num_items, width, m,
                             ef_construction);
  builder.InsertAll();

  auto hnsw = std::make_shared<HnswIndex>();
  hnsw->m = m;
  hnsw->ef_construction = ef_construction;
  hnsw->entry_point = builder.entry_point();
  hnsw->num_levels = builder.num_levels();
  std::vector<int64_t> offsets;
  std::vector<int64_t> neighbors;
  builder.Flatten(&offsets, &neighbors);
  hnsw->neighbor_offsets = std::move(offsets);
  hnsw->neighbors = std::move(neighbors);
  hnsw->CheckConsistent(model->num_items);
  model->hnsw = std::move(hnsw);
  return util::Status::OK();
}

}  // namespace core
}  // namespace gnmr
