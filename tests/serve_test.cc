// Tests for the src/serve/ retrieval subsystem: exact top-K against brute
// force, seen-item filtering, cache hit/invalidation semantics, snapshot
// hot-swapping under concurrent traffic, and the scorer-adapter fast path
// staying bit-identical to the CachedScorer evaluation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/gnmr_trainer.h"
#include "src/core/model_io.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/serve/rec_cache.h"
#include "src/serve/rec_service.h"
#include "src/serve/seen_items.h"
#include "src/serve/exact_retriever.h"

namespace gnmr {
namespace serve {

// White-box handle on RecService's single-flight registry: the
// publish/abandon races under test (stale-lease ABA, leader unwind) are
// not reachable deterministically through the public API alone.
class RecServiceTestPeer {
 public:
  using FlightSlot = RecService::FlightSlot;
  static uint64_t Key(int64_t user, int64_t k) {
    return RecService::FlightKey(user, k);
  }
  static FlightSlot JoinOrLead(RecService* service, uint64_t key) {
    return service->JoinOrLead(key);
  }
  static void Publish(RecService* service, uint64_t key,
                      const FlightSlot& slot,
                      const std::vector<RecEntry>& result) {
    service->PublishFlight(key, slot.flight, result);
  }
  static void Abandon(RecService* service, uint64_t key,
                      const FlightSlot& slot) {
    service->AbandonFlight(key, slot.flight);
  }
  // use_count of the flight registered under `key` (0 if none): the map
  // holds one reference and every JoinOrLead caller holds one, so tests
  // can wait deterministically for a waiter thread to have joined.
  static long FlightUseCount(RecService* service, uint64_t key) {
    std::lock_guard<std::mutex> lock(service->flights_mu_);
    auto it = service->flights_.find(key);
    return it == service->flights_.end() ? 0 : it->second.use_count();
  }
  // Erases the registry entry without touching the flight — the torn
  // state PublishFlight leaves behind when it unwinds after its erase
  // but before marking the flight done.
  static void Unregister(RecService* service, uint64_t key) {
    std::lock_guard<std::mutex> lock(service->flights_mu_);
    service->flights_.erase(key);
  }
  // The cache generation a reader starting now would probe.
  static std::shared_ptr<RecCache> CurrentCache(RecService* service) {
    return service->CurrentCache();
  }
  // Runs `hook` inside the next swap, between publishing the new cache
  // generation and harvesting the outgoing one's counters (swap_mu_ is
  // held, so the hook must not call back into the service).
  static void SetAfterPublishHook(RecService* service,
                                  std::function<void()> hook) {
    service->after_publish_hook_ = std::move(hook);
  }
};

namespace {

// Random serving model with a few duplicated item rows so exact-tie
// handling (break by ascending item id) is actually exercised.
std::shared_ptr<const core::ServingModel> RandomModel(int64_t num_users,
                                                      int64_t num_items,
                                                      int64_t width,
                                                      uint64_t seed) {
  core::ServingModel m;
  m.num_users = num_users;
  m.num_items = num_items;
  util::Rng rng(seed);
  m.embeddings = tensor::Tensor::RandomNormal({num_users + num_items, width},
                                              &rng);
  if (num_items >= 8) {
    float* data = m.embeddings.data();
    // Item rows 1 and 5, and 2 and 7, get identical embeddings -> their
    // scores tie exactly for every user.
    for (int64_t c = 0; c < width; ++c) {
      data[(num_users + 5) * width + c] = data[(num_users + 1) * width + c];
      data[(num_users + 7) * width + c] = data[(num_users + 2) * width + c];
    }
  }
  return std::make_shared<const core::ServingModel>(std::move(m));
}

std::vector<RecEntry> BruteForceTopN(const core::ServingModel& m,
                                     int64_t user, int64_t k,
                                     const SeenItems* seen = nullptr) {
  std::vector<RecEntry> all;
  for (int64_t item = 0; item < m.num_items; ++item) {
    if (seen != nullptr && seen->Contains(user, item)) continue;
    all.push_back({item, m.Score(user, item)});
  }
  std::sort(all.begin(), all.end(), BetterThan);
  if (static_cast<int64_t>(all.size()) > k) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

void ExpectExactlyEqual(const std::vector<RecEntry>& got,
                        const std::vector<RecEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;  // bitwise
  }
}

// ------------------------------------------------------------ seen items ----

data::Dataset TinyDataset() {
  data::Dataset d;
  d.name = "tiny";
  d.num_users = 3;
  d.num_items = 6;
  d.behavior_names = {"view", "buy"};
  d.target_behavior = 1;
  // user 0 bought 0,2 and viewed 4; user 1 bought 1; user 2 nothing.
  d.interactions = {{0, 0, 1, 0}, {0, 2, 1, 1}, {0, 2, 1, 2},  // dup event
                    {0, 4, 0, 3}, {1, 1, 1, 0}};
  return d;
}

TEST(SeenItemsTest, TargetOnlyAndAllBehaviors) {
  data::Dataset d = TinyDataset();
  SeenItems target_only = SeenItems::FromDataset(d, true);
  EXPECT_TRUE(target_only.Contains(0, 0));
  EXPECT_TRUE(target_only.Contains(0, 2));
  EXPECT_FALSE(target_only.Contains(0, 4));  // only viewed
  EXPECT_TRUE(target_only.Contains(1, 1));
  EXPECT_FALSE(target_only.Contains(2, 0));
  EXPECT_EQ(target_only.num_pairs(), 3);  // duplicate event collapsed

  SeenItems all = SeenItems::FromDataset(d, false);
  EXPECT_TRUE(all.Contains(0, 4));
  EXPECT_EQ(all.ItemsOf(0), (std::vector<int64_t>{0, 2, 4}));
}

TEST(SeenItemsTest, OutOfRangeUsersSeeNothing) {
  SeenItems empty;
  EXPECT_FALSE(empty.Contains(0, 0));
  EXPECT_TRUE(empty.ItemsOf(5).empty());
  SeenItems built = SeenItems::FromDataset(TinyDataset(), true);
  EXPECT_FALSE(built.Contains(-1, 0));
  EXPECT_FALSE(built.Contains(99, 0));
}

// -------------------------------------------------------------- retriever ----

TEST(ExactRetrieverTest, MatchesBruteForceExactly) {
  auto model = RandomModel(23, 57, 12, 7);
  ExactRetriever retriever(model);
  for (int64_t k : {1, 3, 10, 57}) {
    for (int64_t user = 0; user < model->num_users; ++user) {
      ExpectExactlyEqual(retriever.RetrieveTopN(user, k),
                         BruteForceTopN(*model, user, k));
    }
  }
}

TEST(ExactRetrieverTest, TiedScoresBreakByItemId) {
  auto model = RandomModel(4, 16, 6, 11);
  ExactRetriever retriever(model);
  std::vector<RecEntry> top = retriever.RetrieveTopN(0, 16);
  // Items (1, 5) and (2, 7) have identical embeddings: equal scores must
  // order the smaller id first.
  auto pos = [&](int64_t item) {
    for (size_t i = 0; i < top.size(); ++i) {
      if (top[i].item == item) return static_cast<int64_t>(i);
    }
    return static_cast<int64_t>(-1);
  };
  EXPECT_EQ(top[static_cast<size_t>(pos(1))].score,
            top[static_cast<size_t>(pos(5))].score);
  EXPECT_LT(pos(1), pos(5));
  EXPECT_EQ(top[static_cast<size_t>(pos(2))].score,
            top[static_cast<size_t>(pos(7))].score);
  EXPECT_LT(pos(2), pos(7));
}

TEST(ExactRetrieverTest, KLargerThanCatalogueIsClamped) {
  auto model = RandomModel(3, 9, 4, 3);
  ExactRetriever retriever(model);
  EXPECT_EQ(retriever.RetrieveTopN(0, 1000).size(), 9u);
}

TEST(ExactRetrieverTest, SpansMultipleItemBlocks) {
  // Catalogue larger than kItemBlock so the blocked scan crosses tiles.
  auto model = RandomModel(5, ExactRetriever::kItemBlock * 2 + 37, 8, 19);
  ExactRetriever retriever(model);
  for (int64_t user = 0; user < model->num_users; ++user) {
    ExpectExactlyEqual(retriever.RetrieveTopN(user, 25),
                       BruteForceTopN(*model, user, 25));
  }
}

TEST(ExactRetrieverTest, SeenItemFiltering) {
  data::Dataset d = TinyDataset();
  auto model = RandomModel(d.num_users, d.num_items, 8, 5);
  auto seen =
      std::make_shared<const SeenItems>(SeenItems::FromDataset(d, true));
  ExactRetriever retriever(model, seen);
  for (int64_t user = 0; user < d.num_users; ++user) {
    std::vector<RecEntry> top = retriever.RetrieveTopN(user, d.num_items);
    for (const RecEntry& e : top) {
      EXPECT_FALSE(seen->Contains(user, e.item))
          << "user " << user << " got seen item " << e.item;
    }
    ExpectExactlyEqual(top,
                       BruteForceTopN(*model, user, d.num_items, seen.get()));
  }
  // User 0 bought 2 of 6 items -> only 4 remain recommendable.
  EXPECT_EQ(retriever.RetrieveTopN(0, d.num_items).size(), 4u);
}

TEST(ExactRetrieverTest, BatchMatchesPerUserCalls) {
  auto model = RandomModel(41, 83, 16, 13);
  ExactRetriever retriever(model);
  std::vector<int64_t> users;
  for (int64_t repeat = 0; repeat < 2; ++repeat) {
    for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  }
  std::vector<std::vector<RecEntry>> batch = retriever.RetrieveBatch(users, 9);
  ASSERT_EQ(batch.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    ExpectExactlyEqual(batch[i], retriever.RetrieveTopN(users[i], 9));
  }
}

TEST(ExactRetrieverTest, ScorerAdapterOutlivesRetriever) {
  std::unique_ptr<eval::Scorer> scorer;
  float direct = 0.0f;
  {
    auto model = RandomModel(6, 10, 4, 23);
    direct = model->Score(2, 3);
    ExactRetriever retriever(model);
    scorer = retriever.MakeScorer();
    // Both the retriever and the local model handle die here.
  }
  std::vector<int64_t> items = {3};
  float out = 0.0f;
  scorer->ScoreItems(2, items, &out);
  EXPECT_EQ(out, direct);
}

// ----------------------------------------------------- shared scorer (io) ----

TEST(MakeSharedScorerTest, SurvivesOriginalHandleReset) {
  auto model = RandomModel(5, 8, 4, 29);
  float want = model->Score(1, 2);
  std::unique_ptr<eval::Scorer> scorer = core::MakeSharedScorer(model);
  model.reset();  // scorer holds the only remaining reference
  std::vector<int64_t> items = {2};
  float got = 0.0f;
  scorer->ScoreItems(1, items, &got);
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------------------ cache ----

TEST(RecCacheTest, HitMissAndLruEviction) {
  RecCache cache(/*capacity_per_shard=*/2, /*num_shards=*/1);
  std::vector<RecEntry> out;
  EXPECT_FALSE(cache.Get(0, 5, &out));
  cache.Put(0, 5, cache.version(), {{1, 0.5f}});
  cache.Put(1, 5, cache.version(), {{2, 0.4f}});
  EXPECT_TRUE(cache.Get(0, 5, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].item, 1);
  // Touch user 0, insert user 2 -> user 1 is LRU and gets evicted.
  cache.Put(2, 5, cache.version(), {{3, 0.3f}});
  EXPECT_FALSE(cache.Get(1, 5, &out));
  EXPECT_TRUE(cache.Get(0, 5, &out));
  EXPECT_TRUE(cache.Get(2, 5, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(RecCacheTest, DifferentKAreDifferentEntries) {
  RecCache cache(8, 1);
  std::vector<RecEntry> out;
  cache.Put(0, 5, cache.version(), {{1, 1.0f}});
  EXPECT_FALSE(cache.Get(0, 10, &out));
  EXPECT_TRUE(cache.Get(0, 5, &out));
}

TEST(RecCacheTest, InvalidateMakesEverythingMiss) {
  RecCache cache(8, 2);
  std::vector<RecEntry> out;
  cache.Put(0, 5, cache.version(), {{1, 1.0f}});
  cache.Put(1, 5, cache.version(), {{2, 2.0f}});
  EXPECT_TRUE(cache.Get(0, 5, &out));
  uint64_t v = cache.Invalidate();
  EXPECT_EQ(v, cache.version());
  EXPECT_FALSE(cache.Get(0, 5, &out));
  EXPECT_FALSE(cache.Get(1, 5, &out));
  // Refill under the new version works.
  cache.Put(0, 5, cache.version(), {{7, 7.0f}});
  EXPECT_TRUE(cache.Get(0, 5, &out));
  EXPECT_EQ(out[0].item, 7);
}

TEST(RecCacheTest, StaleVersionPutIsDropped) {
  RecCache cache(8, 1);
  uint64_t old_version = cache.version();
  cache.Invalidate();
  // A Put that raced a swap (stamped with the pre-swap version) must never
  // be served.
  cache.Put(0, 5, old_version, {{1, 1.0f}});
  std::vector<RecEntry> out;
  EXPECT_FALSE(cache.Get(0, 5, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------- service ----

TEST(RecServiceTest, CachesRepeatRequests) {
  auto model = RandomModel(10, 30, 8, 31);
  RecService service(model);
  std::vector<RecEntry> first = service.Recommend(3, 5);
  ExpectExactlyEqual(first, BruteForceTopN(*model, 3, 5));
  EXPECT_EQ(service.stats().cache_hits, 0u);
  std::vector<RecEntry> second = service.Recommend(3, 5);
  ExpectExactlyEqual(second, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().requests, 2u);
}

TEST(RecServiceTest, OversizedKClampsToCatalogueAndSharesCacheEntry) {
  auto model = RandomModel(6, 20, 4, 71);
  RecService service(model);
  // A huge k must clamp to the catalogue BEFORE the cache key is formed:
  // the clamped and explicit num_items requests share one entry.
  std::vector<RecEntry> a = service.Recommend(0, int64_t{1} << 40);
  EXPECT_EQ(a.size(), 20u);
  std::vector<RecEntry> b = service.Recommend(0, 20);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  ExpectExactlyEqual(a, b);
}

TEST(RecServiceTest, SwapInvalidatesAndServesNewModel) {
  auto model_a = RandomModel(10, 30, 8, 37);
  auto model_b = RandomModel(10, 30, 8, 41);
  RecService service(model_a);
  std::vector<RecEntry> before = service.Recommend(4, 6);
  ExpectExactlyEqual(before, BruteForceTopN(*model_a, 4, 6));
  service.SwapModel(model_b);
  EXPECT_EQ(service.model_version(), 1u);
  EXPECT_EQ(service.stats().swaps, 1u);
  std::vector<RecEntry> after = service.Recommend(4, 6);
  ExpectExactlyEqual(after, BruteForceTopN(*model_b, 4, 6));
  // The post-swap request was a miss (cache was invalidated).
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(RecServiceTest, CacheStatsAggregateAcrossSwaps) {
  auto model_a = RandomModel(10, 30, 8, 83);
  auto model_b = RandomModel(10, 30, 8, 89);
  RecService service(model_a);
  service.Recommend(0, 5);  // miss
  service.Recommend(0, 5);  // hit
  service.Recommend(1, 5);  // miss
  ServiceStats before = service.stats();
  EXPECT_EQ(before.cache.hits, 1u);
  EXPECT_EQ(before.cache.misses, 2u);
  EXPECT_EQ(before.cache.entries, 2u);

  // The swap installs a fresh cache generation (the stale lists are freed
  // eagerly); the outgoing generation's counters must keep aggregating.
  service.SwapModel(model_b);
  ServiceStats after = service.stats();
  EXPECT_EQ(after.cache.hits, 1u);
  EXPECT_EQ(after.cache.misses, 2u);
  EXPECT_EQ(after.cache.entries, 0u);  // retired entries are gone

  service.Recommend(0, 5);  // miss in the new generation
  service.Recommend(0, 5);  // hit
  ServiceStats final_stats = service.stats();
  EXPECT_EQ(final_stats.cache.hits, 2u);
  EXPECT_EQ(final_stats.cache.misses, 3u);
  EXPECT_EQ(final_stats.cache.entries, 1u);
}

TEST(RecServiceTest, CacheCountersSurviveMidTrafficSwaps) {
  // Regression for the per-generation cache: counters must aggregate
  // across generations while swaps retire them mid-traffic, not reset.
  const int64_t num_users = 24, num_items = 64, width = 8;
  auto model_a = RandomModel(num_users, num_items, width, 101);
  auto model_b = RandomModel(num_users, num_items, width, 103);
  constexpr int kReaders = 4;
  constexpr int64_t kPerReader = 400;
  constexpr int kSwaps = 16;

  RecService service(model_a);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(300 + static_cast<uint64_t>(t));
      for (int64_t i = 0; i < kPerReader; ++i) {
        service.Recommend(rng.UniformInt(0, num_users - 1), 10);
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps; ++s) {
      service.SwapModel(s % 2 == 0 ? model_b : model_a);
      std::this_thread::yield();
    }
  });
  for (std::thread& th : readers) th.join();
  swapper.join();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kReaders) * kPerReader);
  EXPECT_EQ(stats.swaps, static_cast<uint64_t>(kSwaps));
  // Every request probes its generation's cache exactly once. A probe that
  // races the retirement of its generation can land after that
  // generation's counters were harvested (at most one in-flight probe per
  // reader per swap), so the aggregate is bounded, not exact.
  const uint64_t probed = stats.cache.hits + stats.cache.misses;
  EXPECT_LE(probed, stats.requests);
  EXPECT_GE(probed + static_cast<uint64_t>(kReaders) * kSwaps,
            stats.requests);
  // Service-level hit counting never loses increments, and a generation
  // hit is only ever recorded for a service-level hit.
  EXPECT_LE(stats.cache.hits, stats.cache_hits);
  EXPECT_LE(stats.cache_hits - stats.cache.hits,
            static_cast<uint64_t>(kReaders) * kSwaps);
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GT(stats.cache.misses, 0u);
}

TEST(RecServiceTest, LatencyNanosFeedTotalsAndHistograms) {
  auto model = RandomModel(10, 30, 8, 97);
  RecService service(model);
  for (int i = 0; i < 6; ++i) service.Recommend(i % 3, 5);
  std::vector<int64_t> users = {0, 1, 5, 6};
  service.RecommendBatch(users, 5);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_GT(stats.latency_ns_total, 0u);

  obs::HistogramSnapshot hit =
      service.metrics().HistogramOf("serve.latency.hit").Snapshot();
  obs::HistogramSnapshot miss =
      service.metrics().HistogramOf("serve.latency.miss").Snapshot();
  obs::HistogramSnapshot coalesced =
      service.metrics().HistogramOf("serve.latency.coalesced").Snapshot();
  obs::HistogramSnapshot batch =
      service.metrics().HistogramOf("serve.latency.batch").Snapshot();
  // Users 0,1,2 missed once each, then hit; the batch is one timed unit.
  EXPECT_EQ(miss.count, 3u);
  EXPECT_EQ(hit.count, 3u);
  EXPECT_EQ(coalesced.count, 0u);
  EXPECT_EQ(batch.count, 1u);
  // The histograms record the SAME clock readings that accumulate into
  // latency_ns_total, so the populations agree exactly, not approximately.
  EXPECT_EQ(hit.sum + miss.sum + coalesced.sum + batch.sum,
            stats.latency_ns_total);
}

TEST(RecServiceTest, BatchMixesHitsAndMisses) {
  auto model = RandomModel(12, 40, 8, 43);
  RecService service(model);
  service.Recommend(0, 7);
  service.Recommend(1, 7);
  std::vector<int64_t> users = {0, 1, 2, 3, 0};
  std::vector<std::vector<RecEntry>> got = service.RecommendBatch(users, 7);
  ASSERT_EQ(got.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    ExpectExactlyEqual(got[i], BruteForceTopN(*model, users[i], 7));
  }
  // Users 0 and 1 were cached; the duplicate trailing 0 also hits.
  EXPECT_EQ(service.stats().cache_hits, 3u);
}

TEST(RecServiceTest, LoadAndSwapFromArtifact) {
  auto model_a = RandomModel(8, 20, 6, 47);
  auto model_b = RandomModel(8, 20, 6, 53);
  std::string path = testing::TempDir() + "/serve_swap.bin";
  ASSERT_TRUE(core::SaveServingModel(*model_b, path).ok());
  RecService service(model_a);
  service.Recommend(1, 4);
  ASSERT_TRUE(service.LoadAndSwap(path).ok());
  ExpectExactlyEqual(service.Recommend(1, 4), BruteForceTopN(*model_b, 1, 4));
  std::remove(path.c_str());

  // Mismatched catalogue shape is refused and leaves the service serving.
  auto model_wrong = RandomModel(9, 20, 6, 59);
  std::string bad = testing::TempDir() + "/serve_swap_bad.bin";
  ASSERT_TRUE(core::SaveServingModel(*model_wrong, bad).ok());
  EXPECT_FALSE(service.LoadAndSwap(bad).ok());
  ExpectExactlyEqual(service.Recommend(2, 4), BruteForceTopN(*model_b, 2, 4));
  std::remove(bad.c_str());
  EXPECT_FALSE(service.LoadAndSwap("/nonexistent/model.bin").ok());
}

TEST(RecServiceTest, ExactServiceIgnoresExactKnob) {
  auto model = RandomModel(8, 40, 6, 83);
  RecService service(model);
  EXPECT_STREQ(service.retriever()->name(), "exact");
  std::vector<RecEntry> a = service.Recommend(3, 10);
  std::vector<RecEntry> b = service.Recommend(3, 10, /*exact=*/true);
  ExpectExactlyEqual(b, a);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exact_fallbacks, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);  // the knob is a no-op: cache still used
}

// A swap publishes the new cache generation before it harvests the
// outgoing one's counters. A probe landing between the two steps — on the
// generation a fresh reader now sees, or on the outgoing one a reader
// captured before the swap — must still reach ServiceStats::cache: the
// fresh reader's through the live generation, the late one's through the
// harvest. Harvesting first would drop a fresh reader's probe into an
// already-harvested generation.
TEST(RecServiceTest, SwapWindowLosesNoCacheProbe) {
  auto model = RandomModel(8, 40, 6, 89);
  RecService service(model);
  service.Recommend(1, 5);  // miss
  service.Recommend(1, 5);  // hit
  std::shared_ptr<RecCache> before_swap =
      RecServiceTestPeer::CurrentCache(&service);
  int window_probes = 0;
  RecServiceTestPeer::SetAfterPublishHook(&service, [&] {
    std::vector<RecEntry> out;
    RecServiceTestPeer::CurrentCache(&service)->Get(1, 5, &out);
    before_swap->Get(1, 5, &out);
    window_probes += 2;
  });
  service.SwapModel(model);
  RecServiceTestPeer::SetAfterPublishHook(&service, nullptr);
  ASSERT_EQ(window_probes, 2);
  const CacheStats cache = service.stats().cache;
  EXPECT_EQ(cache.hits + cache.misses, 4u);
  EXPECT_EQ(cache.hits, 2u);    // the pre-swap hit + the late reader's hit
  EXPECT_EQ(cache.misses, 2u);  // the first miss + the fresh generation's
}

TEST(RecServiceTest, ConcurrentRecommendUnderSwaps) {
  const int64_t num_users = 24, num_items = 64, width = 8;
  auto model_a = RandomModel(num_users, num_items, width, 61);
  auto model_b = RandomModel(num_users, num_items, width, 67);
  const int64_t k = 10;
  // Precompute ground truth under both snapshots: every answer a reader
  // ever observes must exactly match one of them.
  std::vector<std::vector<RecEntry>> want_a, want_b;
  for (int64_t u = 0; u < num_users; ++u) {
    want_a.push_back(BruteForceTopN(*model_a, u, k));
    want_b.push_back(BruteForceTopN(*model_b, u, k));
  }

  RecService service(model_a);
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(100 + static_cast<uint64_t>(t));
      for (int64_t i = 0; i < 400; ++i) {
        int64_t user = rng.UniformInt(0, num_users - 1);
        std::vector<RecEntry> got = service.Recommend(user, k);
        if (got != want_a[static_cast<size_t>(user)] &&
            got != want_b[static_cast<size_t>(user)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < 24; ++s) {
      service.SwapModel(s % 2 == 0 ? model_b : model_a);
      std::this_thread::yield();
    }
  });
  for (std::thread& th : readers) th.join();
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 4u * 400u);
  EXPECT_EQ(stats.swaps, 24u);
}

TEST(RecServiceTest, ConcurrentRecommendUnderHeapMmapSwaps) {
  // Alternating swaps between an artifact loaded into owned heap storage
  // (LoadServingModel + SwapModel) and one served zero-copy out of an mmap
  // (LoadAndSwap on an mmap service) must stay race-free under concurrent
  // readers: a reader pinning a mapped snapshot keeps the mapping alive
  // through its tensors' keepalives even after the service swaps back to
  // heap storage and drops every other reference.
  const int64_t num_users = 16, num_items = 48, width = 8;
  auto model_a = RandomModel(num_users, num_items, width, 73);
  auto model_b = RandomModel(num_users, num_items, width, 79);
  const int64_t k = 8;
  std::vector<std::vector<RecEntry>> want_a, want_b;
  for (int64_t u = 0; u < num_users; ++u) {
    want_a.push_back(BruteForceTopN(*model_a, u, k));
    want_b.push_back(BruteForceTopN(*model_b, u, k));
  }

  std::string heap_path = testing::TempDir() + "/serve_swap_heap.bin";
  std::string mmap_path = testing::TempDir() + "/serve_swap_mmap.bin";
  ASSERT_TRUE(core::SaveServingModel(*model_a, heap_path).ok());
  ASSERT_TRUE(core::SaveServingModel(*model_b, mmap_path).ok());
  auto heap_loaded = core::LoadServingModel(heap_path);
  ASSERT_TRUE(heap_loaded.ok()) << heap_loaded.status().ToString();
  auto heap_snapshot = std::make_shared<const core::ServingModel>(
      std::move(heap_loaded).value());
  ASSERT_FALSE(heap_snapshot->is_mapped());

  RecService::Options options;
  options.mmap_artifacts = true;
  RecService service(model_a, nullptr, options);
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(200 + static_cast<uint64_t>(t));
      for (int64_t i = 0; i < 300; ++i) {
        int64_t user = rng.UniformInt(0, num_users - 1);
        std::vector<RecEntry> got = service.Recommend(user, k);
        if (got != want_a[static_cast<size_t>(user)] &&
            got != want_b[static_cast<size_t>(user)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < 16; ++s) {
      if (s % 2 == 0) {
        ASSERT_TRUE(service.LoadAndSwap(mmap_path).ok());
        EXPECT_TRUE(service.retriever()->model().is_mapped());
      } else {
        service.SwapModel(heap_snapshot);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& th : readers) th.join();
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.stats().swaps, 16u);
  // The last swap installed the heap snapshot; a fresh mmap swap flips it
  // back.
  ASSERT_TRUE(service.LoadAndSwap(mmap_path).ok());
  ExpectExactlyEqual(service.Recommend(3, k),
                     want_b[3]);
  std::remove(heap_path.c_str());
  std::remove(mmap_path.c_str());
}

TEST(RecServiceTest, BatchCoalescesDuplicateMisses) {
  // A cold batch holding the same (user, k) three times misses three
  // times but retrieves once: the first occurrence leads, the other two
  // join its flight (published before any join waits, so no self-wait).
  auto model = RandomModel(8, 32, 8, 71);
  RecService service(model);
  std::vector<int64_t> users = {3, 3, 3, 5};
  auto out = service.RecommendBatch(users, 10);
  ASSERT_EQ(out.size(), 4u);
  std::vector<RecEntry> want = BruteForceTopN(*model, 3, 10);
  ExpectExactlyEqual(out[0], want);
  ExpectExactlyEqual(out[1], want);
  ExpectExactlyEqual(out[2], want);
  ExpectExactlyEqual(out[3], BruteForceTopN(*model, 5, 10));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(RecServiceTest, ConcurrentMissesForSameKeySingleFlight) {
  // A thundering herd on one cold (user, k): every thread gets the exact
  // list, and each request is accounted as exactly one of {cache hit,
  // coalesced wait, leader retrieval}.
  auto model = RandomModel(8, 128, 8, 73);
  RecService service(model);
  std::vector<RecEntry> want = BruteForceTopN(*model, 2, 10);
  constexpr int kThreads = 8;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<RecEntry> got = service.Recommend(2, 10);
      if (got != want) mismatches.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads));
  // hits + coalesced + leader-retrievals partition the requests; at least
  // one thread had to do the real scan.
  uint64_t retrieved = stats.requests - stats.cache_hits - stats.coalesced;
  EXPECT_GE(retrieved, 1u);
  EXPECT_LE(retrieved, static_cast<uint64_t>(kThreads));
}

// Spin until the flight under `key` has at least `count` holders — the
// registry map holds one reference and every JoinOrLead caller holds one,
// so this observes (without sleeps or timing assumptions) that a waiter
// thread has joined the flight. Once joined, the predicate-based cv wait
// makes publish/abandon wakeups race-free regardless of thread order.
void AwaitJoined(RecService* service, uint64_t key, long count) {
  while (RecServiceTestPeer::FlightUseCount(service, key) < count) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(RecServiceFlightTest, StaleAbandonLeavesReledFlightLive) {
  // ABA regression: a lease whose flight was already published fires its
  // abandon AFTER another thread re-led the same (user, k) key. The stale
  // abandon must be an identity-checked no-op — before the fix it tore
  // down the new live flight (waiters got empty lists) and the new
  // leader's PublishFlight then aborted the process.
  auto model = RandomModel(8, 32, 8, 91);
  RecService service(model);
  const uint64_t key = RecServiceTestPeer::Key(3, 10);
  std::vector<RecEntry> want = BruteForceTopN(*model, 3, 10);

  auto first = RecServiceTestPeer::JoinOrLead(&service, key);
  ASSERT_TRUE(first.leader);
  RecServiceTestPeer::Publish(&service, key, first, want);

  auto second = RecServiceTestPeer::JoinOrLead(&service, key);
  ASSERT_TRUE(second.leader);
  std::vector<RecEntry> got;
  std::thread waiter([&] { got = service.Recommend(3, 10); });
  AwaitJoined(&service, key, 3);  // map + `second` + the parked waiter
  RecServiceTestPeer::Abandon(&service, key, first);  // stale lease firing
  RecServiceTestPeer::Publish(&service, key, second, want);  // must not abort
  waiter.join();
  ExpectExactlyEqual(got, want);
  // The waiter consumed the second leader's published result — the stale
  // abandon neither woke it early nor marked its flight abandoned.
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(RecServiceFlightTest, WaiterOnAbandonedFlightRetrievesItself) {
  // A leader that unwinds before publishing must not feed waiters its
  // empty placeholder as if the user genuinely had zero items: they fall
  // back to doing the retrieval themselves.
  auto model = RandomModel(8, 64, 8, 93);
  RecService service(model);
  const uint64_t key = RecServiceTestPeer::Key(4, 10);
  std::vector<RecEntry> want = BruteForceTopN(*model, 4, 10);

  auto leader = RecServiceTestPeer::JoinOrLead(&service, key);
  ASSERT_TRUE(leader.leader);
  std::vector<RecEntry> got;
  std::thread waiter([&] { got = service.Recommend(4, 10); });
  AwaitJoined(&service, key, 3);  // map + `leader` + the parked waiter
  RecServiceTestPeer::Abandon(&service, key, leader);  // leader unwinds
  waiter.join();
  ExpectExactlyEqual(got, want);
  EXPECT_EQ(service.stats().coalesced, 0u);  // fallback, not a coalesce
  // The fallback also repaired the cache: the next request hits.
  ExpectExactlyEqual(service.Recommend(4, 10), want);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(RecServiceFlightTest, BatchJoinOnAbandonedFlightRetrievesItself) {
  // Same leader-unwind fallback through the RecommendBatch join path.
  auto model = RandomModel(8, 64, 8, 95);
  RecService service(model);
  const uint64_t key = RecServiceTestPeer::Key(5, 10);
  std::vector<RecEntry> want = BruteForceTopN(*model, 5, 10);

  auto leader = RecServiceTestPeer::JoinOrLead(&service, key);
  ASSERT_TRUE(leader.leader);
  std::vector<std::vector<RecEntry>> got;
  std::thread waiter([&] { got = service.RecommendBatch({5, 6}, 10); });
  AwaitJoined(&service, key, 3);  // map + `leader` + the batch's join
  RecServiceTestPeer::Abandon(&service, key, leader);
  waiter.join();
  ASSERT_EQ(got.size(), 2u);
  ExpectExactlyEqual(got[0], want);
  ExpectExactlyEqual(got[1], BruteForceTopN(*model, 6, 10));
  EXPECT_EQ(service.stats().coalesced, 0u);
}

TEST(RecServiceFlightTest, AbandonAfterTornPublishStillReleasesWaiters) {
  // Simulates PublishFlight unwinding between its registry erase and
  // setting done (e.g. the result copy throwing bad_alloc): the lease's
  // abandon no longer finds the key, but must still mark the flight
  // abandoned so waiters wake and re-run the miss path instead of
  // hanging forever on a cv nobody will signal.
  auto model = RandomModel(8, 64, 8, 99);
  RecService service(model);
  const uint64_t key = RecServiceTestPeer::Key(6, 10);
  std::vector<RecEntry> want = BruteForceTopN(*model, 6, 10);

  auto leader = RecServiceTestPeer::JoinOrLead(&service, key);
  ASSERT_TRUE(leader.leader);
  std::vector<RecEntry> got;
  std::thread waiter([&] { got = service.Recommend(6, 10); });
  AwaitJoined(&service, key, 3);
  RecServiceTestPeer::Unregister(&service, key);        // publish's erase…
  RecServiceTestPeer::Abandon(&service, key, leader);   // …then the unwind
  waiter.join();
  ExpectExactlyEqual(got, want);
  EXPECT_EQ(service.stats().coalesced, 0u);
}

TEST(RecServiceDeathTest, UserIdOutsideKeyPackingAborts) {
  // (user, k) share one 64-bit cache/flight key with user in the high 32
  // bits; an id past 2^32 would silently collide with another user's key
  // and serve them each other's lists, so it must abort loudly instead.
  auto model = RandomModel(8, 32, 8, 97);
  RecService service(model);
  EXPECT_DEATH(service.Recommend(int64_t{1} << 32, 5), "key packing");
  EXPECT_DEATH(service.Recommend(-1, 5), "user");
  EXPECT_DEATH(service.RecommendBatch({2, int64_t{1} << 32}, 5),
               "key packing");
}

// ------------------------------------------- evaluator fast-path parity ----

TEST(ServeEvalParityTest, RetrieverScorerBitIdenticalToCachedScorer) {
  // Table-III-style check on synthetic data: HR/NDCG computed through the
  // serving-path scorer must match the training-side CachedScorer path
  // bit for bit.
  data::Dataset full = data::GenerateSynthetic(data::YelpLike(0.08));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  util::Rng rng(7);
  auto candidates = data::BuildEvalCandidates(split.train, split.test,
                                              std::min<int64_t>(99, full.num_items / 3),
                                              &rng);
  core::GnmrConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_channels = 4;
  cfg.epochs = 2;
  cfg.use_pretrain = false;
  core::GnmrTrainer trainer(cfg, split.train);
  trainer.Train();
  const std::vector<int64_t> cutoffs = {1, 3, 5, 7, 9};

  std::unique_ptr<eval::Scorer> cached = trainer.MakeScorer();
  eval::RankingMetrics want =
      eval::EvaluateRanking(cached.get(), candidates, cutoffs);

  auto serving = std::make_shared<const core::ServingModel>(
      core::ExportServingModel(trainer.model()));
  ExactRetriever retriever(serving);
  std::unique_ptr<eval::Scorer> fast = retriever.MakeScorer();
  eval::RankingMetrics got =
      eval::EvaluateRanking(fast.get(), candidates, cutoffs);

  ASSERT_EQ(got.num_users, want.num_users);
  for (int64_t n : cutoffs) {
    EXPECT_EQ(got.hr[n], want.hr[n]) << "HR@" << n;      // bitwise
    EXPECT_EQ(got.ndcg[n], want.ndcg[n]) << "NDCG@" << n;
  }
}

}  // namespace
}  // namespace serve
}  // namespace gnmr
