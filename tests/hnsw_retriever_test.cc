// Tests for the HNSW graph retrieval tier: deterministic graph
// construction (same data + same seed => the same CSR arrays, on every
// bit-exact backend), the serving-score contract (every returned entry
// carries the bit-identical score the exact scan would give it), the
// pinned recall@10 >= 0.95 gate with the distance-eval budget asserted
// through RetrieverStats, batch/parallel parity, and RecService routing
// through RetrieverKind::kHnsw including the per-request exact fallback
// (single and batched), hot-swap and the build-on-load path for graphless
// artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/model_io.h"
#include "src/data/dataset.h"
#include "src/eval/retrieval_recall.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/hnsw_retriever.h"
#include "src/serve/rec_service.h"
#include "src/serve/seen_items.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/util/rng.h"

namespace gnmr {
namespace {

using serve::ExactRetriever;
using serve::HnswRetriever;
using serve::ItemShardMode;
using serve::RecEntry;

// ------------------------------------------------------------ test data ----

// Well-separated clustered embeddings: `num_clusters` centers at a large
// scale, every row near one of them with small noise. Users prefer "their" cluster's items by a wide
// margin — the regime where a proximity graph's greedy walk should zoom
// straight into the right neighborhood.
core::ServingModel ClusteredModel(int64_t num_users, int64_t num_items,
                                  int64_t width, int64_t num_clusters,
                                  uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor centers =
      tensor::Tensor::RandomNormal({num_clusters, width}, &rng, 0.0f, 8.0f);
  core::ServingModel m;
  m.num_users = num_users;
  m.num_items = num_items;
  m.embeddings = tensor::Tensor({num_users + num_items, width});
  float* data = m.embeddings.data();
  for (int64_t r = 0; r < num_users + num_items; ++r) {
    const int64_t c = r < num_users
                          ? r % num_clusters
                          : ((r - num_users) * num_clusters) / num_items;
    const float* center = centers.data() + c * width;
    for (int64_t j = 0; j < width; ++j) {
      data[r * width + j] = center[j] + rng.Normal(0.0f, 0.2f);
    }
  }
  return m;
}

std::shared_ptr<const core::ServingModel> GraphedModel(
    int64_t num_users, int64_t num_items, int64_t width,
    int64_t num_clusters, uint64_t seed, int64_t m_param,
    int64_t ef_construction) {
  core::ServingModel m =
      ClusteredModel(num_users, num_items, width, num_clusters, seed);
  EXPECT_TRUE(core::BuildHnswIndex(&m, m_param, ef_construction).ok());
  return std::make_shared<const core::ServingModel>(std::move(m));
}

void ExpectExactlyEqual(const std::vector<RecEntry>& got,
                        const std::vector<RecEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;  // bitwise
  }
}

void ExpectSameGraph(const core::HnswIndex& a, const core::HnswIndex& b) {
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.ef_construction, b.ef_construction);
  EXPECT_EQ(a.entry_point, b.entry_point);
  EXPECT_EQ(a.num_levels, b.num_levels);
  ASSERT_EQ(a.neighbor_offsets.size(), b.neighbor_offsets.size());
  for (int64_t i = 0; i < a.neighbor_offsets.size(); ++i) {
    ASSERT_EQ(a.neighbor_offsets[static_cast<size_t>(i)],
              b.neighbor_offsets[static_cast<size_t>(i)])
        << "offset " << i;
  }
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (int64_t i = 0; i < a.neighbors.size(); ++i) {
    ASSERT_EQ(a.neighbors[static_cast<size_t>(i)],
              b.neighbors[static_cast<size_t>(i)])
        << "neighbor " << i;
  }
}

serve::SeenItems MakeSeen(int64_t num_users, int64_t num_items) {
  data::Dataset d;
  d.name = "seen";
  d.num_users = num_users;
  d.num_items = num_items;
  d.behavior_names = {"buy"};
  d.target_behavior = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t i = 0; i < 5; ++i) {
      d.interactions.push_back({u, (u * 7 + i * 13) % num_items, 0, i});
    }
  }
  return serve::SeenItems::FromDataset(d, false);
}

// ------------------------------------------------------------ the build ----

TEST(HnswBuildTest, DeterministicGraphSameSeed) {
  core::ServingModel a = ClusteredModel(8, 1500, 8, 8, 31);
  core::ServingModel b = ClusteredModel(8, 1500, 8, 8, 31);
  ASSERT_TRUE(core::BuildHnswIndex(&a, 8, 48).ok());
  ASSERT_TRUE(core::BuildHnswIndex(&b, 8, 48).ok());
  ASSERT_TRUE(a.has_hnsw());
  ASSERT_TRUE(b.has_hnsw());
  a.hnsw->CheckConsistent(a.num_items);
  ExpectSameGraph(*a.hnsw, *b.hnsw);
  EXPECT_EQ(a.hnsw->m, 8);
  EXPECT_EQ(a.hnsw->ef_construction, 48);
  // A 1500-item catalogue should thin into more than one level — the
  // walk has something to descend.
  EXPECT_GT(a.hnsw->num_levels, 1);
}

TEST(HnswBuildTest, DefaultsAppliedAndDegenerateParamsClamped) {
  core::ServingModel m = ClusteredModel(4, 256, 8, 4, 5);
  ASSERT_TRUE(core::BuildHnswIndex(&m, 0, 0).ok());
  ASSERT_TRUE(m.has_hnsw());
  EXPECT_EQ(m.hnsw->m, tensor::kHnswDefaultM);
  EXPECT_EQ(m.hnsw->ef_construction, tensor::kHnswDefaultEfConstruction);
  // m = 1 would make the level distribution degenerate (ln 1 = 0); the
  // builder clamps to 2 rather than dividing by zero.
  core::ServingModel tiny = ClusteredModel(2, 64, 8, 2, 7);
  ASSERT_TRUE(core::BuildHnswIndex(&tiny, 1, 4).ok());
  EXPECT_EQ(tiny.hnsw->m, 2);
  EXPECT_GE(tiny.hnsw->ef_construction, 2);  // ef >= m after clamping
  tiny.hnsw->CheckConsistent(tiny.num_items);
}

TEST(HnswBuildTest, SingleItemCatalogue) {
  core::ServingModel m;
  m.num_users = 1;
  m.num_items = 1;
  util::Rng rng(3);
  m.embeddings = tensor::Tensor::RandomNormal({2, 4}, &rng, 0.0f, 1.0f);
  ASSERT_TRUE(core::BuildHnswIndex(&m, 4, 8).ok());
  ASSERT_TRUE(m.has_hnsw());
  EXPECT_EQ(m.hnsw->entry_point, 0);
  m.hnsw->CheckConsistent(1);
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  HnswRetriever hnsw(model);
  std::vector<RecEntry> top = hnsw.RetrieveTopN(0, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 0);
}

TEST(HnswBuildTest, GraphIdenticalAcrossBitExactBackends) {
  // The builder's distances flow through QueryDot/QueryDotIndexed, so
  // every bit-exact backend must grow the identical graph.
  core::ServingModel reference = ClusteredModel(4, 1200, 8, 8, 47);
  {
    tensor::ScopedBackend scoped("serial");
    ASSERT_TRUE(core::BuildHnswIndex(&reference, 8, 32).ok());
  }
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    core::ServingModel other = ClusteredModel(4, 1200, 8, 8, 47);
    ASSERT_TRUE(core::BuildHnswIndex(&other, 8, 32).ok());
    SCOPED_TRACE(backend->name());
    ExpectSameGraph(*reference.hnsw, *other.hnsw);
  }
}

// ---------------------------------------------------------- the serving ----

TEST(HnswRetrieverTest, ScoresMatchServingContract) {
  // Approximation lives purely in coverage: whatever the walk returns
  // must carry the bit-identical score the exact scan computes, ranked
  // under the same total order (score desc, id asc).
  auto model = GraphedModel(16, 1500, 8, 8, 91, 8, 48);
  HnswRetriever hnsw(model, nullptr, /*ef_search=*/32);
  for (int64_t user = 0; user < model->num_users; ++user) {
    std::vector<RecEntry> top = hnsw.RetrieveTopN(user, 10);
    ASSERT_EQ(top.size(), 10u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].score, model->Score(user, top[i].item))
          << "user " << user << " position " << i;
      if (i > 0) {
        EXPECT_TRUE(serve::BetterThan(top[i - 1], top[i]))
            << "order violated at position " << i;
      }
    }
  }
}

TEST(HnswRetrieverTest, SeenItemsNeverReturned) {
  auto model = GraphedModel(16, 1500, 8, 8, 13, 8, 48);
  auto seen = std::make_shared<const serve::SeenItems>(
      MakeSeen(model->num_users, model->num_items));
  HnswRetriever hnsw(model, seen, /*ef_search=*/32);
  for (int64_t user = 0; user < model->num_users; ++user) {
    for (const RecEntry& e : hnsw.RetrieveTopN(user, 10)) {
      EXPECT_FALSE(seen->Contains(user, e.item))
          << "user " << user << " got seen item " << e.item;
    }
  }
}

TEST(HnswRetrieverTest, BatchMatchesPerUserCalls) {
  auto model = GraphedModel(20, 1500, 8, 8, 59, 8, 48);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  HnswRetriever hnsw(model, nullptr, /*ef_search=*/32);
  std::vector<std::vector<RecEntry>> batch = hnsw.RetrieveBatch(users, 10);
  ASSERT_EQ(batch.size(), users.size());
  for (size_t u = 0; u < users.size(); ++u) {
    ExpectExactlyEqual(batch[u], hnsw.RetrieveTopN(users[u], 10));
  }
}

TEST(HnswRetrieverTest, ServingIdenticalAcrossBitExactBackends) {
  auto model = GraphedModel(8, 1200, 8, 8, 83, 8, 32);
  std::vector<std::vector<RecEntry>> want;
  {
    tensor::ScopedBackend scoped("serial");
    HnswRetriever hnsw(model, nullptr, /*ef_search=*/32);
    for (int64_t u = 0; u < model->num_users; ++u) {
      want.push_back(hnsw.RetrieveTopN(u, 10));
    }
  }
  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    SCOPED_TRACE(backend->name());
    HnswRetriever hnsw(model, nullptr, /*ef_search=*/32);
    for (int64_t u = 0; u < model->num_users; ++u) {
      ExpectExactlyEqual(hnsw.RetrieveTopN(u, 10),
                         want[static_cast<size_t>(u)]);
    }
    std::vector<std::vector<RecEntry>> batch = hnsw.RetrieveBatch(users, 10);
    for (size_t u = 0; u < batch.size(); ++u) {
      ExpectExactlyEqual(batch[u], want[u]);
    }
  }
}

TEST(HnswRetrieverTest, RecallGateAtPinnedConfig) {
  // The acceptance bar from the issue: at the pinned configuration
  // (m=16, ef_construction=128, ef_search=64 on well-clustered data) the
  // graph walk must keep recall@10 >= 0.95 while evaluating distances
  // for at most 10% of the catalogue per query — sub-linear in practice,
  // not just asymptotically.
  auto model = GraphedModel(64, 8192, 16, 64, 67, 16, 128);
  ExactRetriever exact(model, nullptr, ItemShardMode::kOff);
  HnswRetriever hnsw(model, nullptr, /*ef_search=*/64);
  EXPECT_EQ(hnsw.ef_search(), 64);

  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  const double recall = eval::RetrievalRecallAtK(exact, hnsw, users, 10);
  EXPECT_GE(recall, 0.95) << "HNSW recall@10 collapsed";

  serve::RetrieverStats stats = hnsw.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(users.size()));
  EXPECT_GT(stats.hops, stats.requests);  // more than one node per walk
  EXPECT_GT(stats.scanned_items, 0u);
  EXPECT_EQ(stats.scanned_bytes,
            stats.scanned_items *
                static_cast<uint64_t>(model->embeddings.cols()) *
                sizeof(float));
  const double eval_fraction =
      static_cast<double>(stats.scanned_items) /
      (static_cast<double>(users.size()) *
       static_cast<double>(model->num_items));
  EXPECT_LE(eval_fraction, 0.10) << "HNSW evaluated too many distances";
}

TEST(HnswRetrieverTest, WiderBeamNeverScansLess) {
  // ef_search is the quality/latency dial: a wider beam evaluates at
  // least as many candidates and can only improve recall's inputs.
  auto model = GraphedModel(16, 2048, 8, 16, 29, 8, 64);
  uint64_t prev_evals = 0;
  for (int64_t ef : {16, 64, 256}) {
    HnswRetriever hnsw(model, nullptr, ef);
    for (int64_t u = 0; u < model->num_users; ++u) {
      hnsw.RetrieveTopN(u, 10);
    }
    const uint64_t evals = hnsw.Stats().scanned_items;
    EXPECT_GE(evals, prev_evals) << "ef_search=" << ef;
    prev_evals = evals;
  }
}

// ----------------------------------------------------------- the service ----

TEST(RecServiceHnswTest, RoutesThroughConfiguredStrategy) {
  auto model = GraphedModel(16, 1500, 8, 8, 43, 8, 48);
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kHnsw;
  options.ef_search = 32;
  serve::RecService service(model, nullptr, options);
  EXPECT_STREQ(service.retriever()->name(), "hnsw");

  HnswRetriever hnsw(model, nullptr, /*ef_search=*/32);
  ExactRetriever exact(model, nullptr, ItemShardMode::kAuto);
  for (int64_t user = 0; user < 8; ++user) {
    ExpectExactlyEqual(service.Recommend(user, 10),
                       hnsw.RetrieveTopN(user, 10));
  }
  // The per-request exact knob bypasses the graph AND the cache.
  for (int64_t user = 0; user < 8; ++user) {
    ExpectExactlyEqual(service.Recommend(user, 10, /*exact=*/true),
                       exact.RetrieveTopN(user, 10));
  }
  serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exact_fallbacks, 8u);
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_GT(stats.retrieval.hops, 0u);
  EXPECT_GT(stats.retrieval.scanned_items, 0u);

  // Batched exact fallback too.
  std::vector<int64_t> users = {0, 1, 2, 3};
  std::vector<std::vector<RecEntry>> batch =
      service.RecommendBatch(users, 10, /*exact=*/true);
  ASSERT_EQ(batch.size(), users.size());
  for (size_t u = 0; u < users.size(); ++u) {
    ExpectExactlyEqual(batch[u], exact.RetrieveTopN(users[u], 10));
  }
  EXPECT_EQ(service.stats().exact_fallbacks, 12u);
}

TEST(RecServiceHnswTest, CacheServesHnswResultsAndSwapInvalidates) {
  auto model = GraphedModel(16, 1500, 8, 8, 19, 8, 48);
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kHnsw;
  options.ef_search = 32;
  serve::RecService service(model, nullptr, options);
  std::vector<RecEntry> first = service.Recommend(5, 10);
  std::vector<RecEntry> second = service.Recommend(5, 10);
  ExpectExactlyEqual(second, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // A snapshot already carrying a graph hot-swaps in; the cache resets.
  service.SwapModel(model);
  EXPECT_EQ(service.model_version(), 1u);
  std::vector<RecEntry> third = service.Recommend(5, 10);
  ExpectExactlyEqual(third, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // miss after invalidation
}

TEST(RecServiceHnswTest, LoadAndSwapBuildsGraphForGraphlessArtifacts) {
  // Codeless degradation analog: an artifact saved without a graph, so
  // LoadAndSwap must build one on the fly (same deterministic level
  // hashing and prune => the same graph the offline build would persist)
  // rather than reject the file or silently degrade to a scan.
  core::ServingModel base = ClusteredModel(24, 1500, 8, 8, 71);
  std::string path = testing::TempDir() + "/gnmr_plain_for_hnsw.bin";
  ASSERT_TRUE(core::SaveServingModel(base, path).ok());  // no graph

  core::ServingModel with_graph = base;
  ASSERT_TRUE(core::BuildHnswIndex(&with_graph, 8, 0).ok());
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kHnsw;
  options.hnsw_m = 8;
  options.ef_search = 32;
  serve::RecService service(
      std::make_shared<const core::ServingModel>(std::move(with_graph)),
      nullptr, options);
  std::vector<RecEntry> before = service.Recommend(3, 10);
  util::Status s = service.LoadAndSwap(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(service.model_version(), 1u);
  std::vector<RecEntry> after = service.Recommend(3, 10);
  // Same embeddings, same deterministic construction -> same lists.
  ExpectExactlyEqual(after, before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnmr
