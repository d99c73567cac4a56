// google-benchmark suite for the serving read path: blocked top-K
// retrieval vs the per-item eval::Scorer loop it replaces, batched
// retrieval (user blocks sharing item tiles), item-sharded retrieval
// over the shard pool (single-user and batched), IVF approximate retrieval
// (with its measured recall@k and scanned fraction logged as counters so
// the quality/cost trade-off is recorded, not assumed), and the RecService
// cache cold vs warm under a Zipf-distributed request stream. Runs on a
// 10k-user x 20k-item synthetic ServingModel; CI uploads the JSON next to
// BENCH_micro_kernels so the serving perf trajectory is recorded per run.
//
// --closed_loop switches the binary into a tail-latency load harness
// (google-benchmark never initializes): paced Zipf traffic against a live
// RecService, per-phase obs::Histogram latency (p50/p95/p99/max), a hot
// swap fired mid-phase, a cache-cold phase, and a tracing on/off overhead
// comparison on the warm hit path. Pacing is deadline-based — request i's
// latency is measured from its SCHEDULED start, so a stalled service
// accrues queueing delay instead of silently sending fewer requests
// (coordinated omission). Results print as JSON (--out= writes a file;
// BENCH_serve_tail.json in the repo records a pinned-config run):
//
//   ./build/bench/serve_throughput --closed_loop [--threads=2] [--k=10]
//       [--zipf=1.1] [--steady=30000] [--swap=20000] [--cold=1500]
//       [--warmup=16384] [--target_qps=0] [--retriever=exact|ivf]
//       [--out=path] [--trace_json=path] [--metrics_json=path]
//
// --target_qps=0 paces steady/swap at 60% of the measured warmup
// throughput (a sustainable rate, so the quantiles describe service time,
// not unbounded queue growth); warmup and cold run unpaced closed-loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/model_io.h"
#include "src/eval/retrieval_recall.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/hnsw_retriever.h"
#include "src/serve/ivf_retriever.h"
#include "src/serve/rec_service.h"
#include "src/serve/zipf_stream.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace {

using namespace gnmr;

constexpr int64_t kUsers = 10000;
constexpr int64_t kItems = 20000;
constexpr int64_t kWidth = 32;
constexpr int64_t kIvfNlist = 64;

std::shared_ptr<const core::ServingModel> GlobalModel() {
  static std::shared_ptr<const core::ServingModel> model = [] {
    core::ServingModel m;
    m.num_users = kUsers;
    m.num_items = kItems;
    util::Rng rng(97);
    m.embeddings =
        tensor::Tensor::RandomNormal({kUsers + kItems, kWidth}, &rng);
    return std::make_shared<const core::ServingModel>(std::move(m));
  }();
  return model;
}

// Clustered embedding geometry (what trained multi-order embeddings look
// like, and the regime an IVF index is built for) with the index attached;
// dimensions match GlobalModel so IVF timings compare directly against
// the exact-scan cases. Twin of ClusteredModel in
// tests/ivf_retriever_test.cc (wider noise, bench-scale shapes) — keep
// the user/item-to-cluster formulas in sync so the logged recall measures
// the same regime the tests pin.
std::shared_ptr<const core::ServingModel> GlobalIvfModel() {
  static std::shared_ptr<const core::ServingModel> model = [] {
    util::Rng rng(211);
    tensor::Tensor centers =
        tensor::Tensor::RandomNormal({kIvfNlist, kWidth}, &rng, 0.0f, 4.0f);
    core::ServingModel m;
    m.num_users = kUsers;
    m.num_items = kItems;
    m.embeddings = tensor::Tensor({kUsers + kItems, kWidth});
    float* data = m.embeddings.data();
    for (int64_t r = 0; r < kUsers + kItems; ++r) {
      const int64_t c = r < kUsers
                            ? r % kIvfNlist
                            : ((r - kUsers) * kIvfNlist) / kItems;
      const float* center = centers.data() + c * kWidth;
      for (int64_t j = 0; j < kWidth; ++j) {
        data[r * kWidth + j] = center[j] + rng.Normal(0.0f, 0.5f);
      }
    }
    GNMR_CHECK(core::BuildIvfIndex(&m, kIvfNlist).ok());
    return std::make_shared<const core::ServingModel>(std::move(m));
  }();
  return model;
}

// Recall@k of the IVF strategy vs the exact scan on a user sample,
// logged as a benchmark counter. The value is deterministic, and
// google-benchmark invokes each BM_ function several times (calibration
// + measurement), so it is computed once per (nprobe, k) and cached —
// each measurement costs a full 256-user exact scan otherwise.
double MeasuredIvfRecall(int64_t nprobe, int64_t k) {
  static std::map<std::pair<int64_t, int64_t>, double> cache;
  const auto key = std::make_pair(nprobe, k);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  serve::ExactRetriever exact(GlobalIvfModel(), nullptr,
                              serve::ItemShardMode::kOff);
  serve::IvfRetriever ivf(GlobalIvfModel(), nullptr, nprobe,
                          serve::ItemShardMode::kOff);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < 256; ++u) users.push_back((u * 131) % kUsers);
  const double recall = eval::RetrievalRecallAtK(exact, ivf, users, k);
  cache[key] = recall;
  return recall;
}

// The serving path this subsystem replaces: score every catalogue item
// through the virtual per-item eval::Scorer, then partial_sort for top-K.
void BM_PerItemScorerTopN(benchmark::State& state) {
  const int64_t k = state.range(0);
  auto model = GlobalModel();
  std::unique_ptr<eval::Scorer> scorer = model->MakeScorer();
  std::vector<int64_t> all_items(static_cast<size_t>(kItems));
  for (int64_t i = 0; i < kItems; ++i) all_items[static_cast<size_t>(i)] = i;
  std::vector<float> scores(static_cast<size_t>(kItems));
  std::vector<std::pair<float, int64_t>> ranked(static_cast<size_t>(kItems));
  int64_t user = 0;
  for (auto _ : state) {
    scorer->ScoreItems(user, all_items, scores.data());
    for (int64_t i = 0; i < kItems; ++i) {
      ranked[static_cast<size_t>(i)] = {scores[static_cast<size_t>(i)], i};
    }
    std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                      std::greater<>());
    benchmark::DoNotOptimize(ranked[static_cast<size_t>(k - 1)]);
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_PerItemScorerTopN)->Arg(10)->Arg(100);

void BM_BlockedRetrievalTopN(benchmark::State& state) {
  const int64_t k = state.range(0);
  serve::ExactRetriever retriever(GlobalModel(), nullptr,
                                 serve::ItemShardMode::kOff);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveTopN(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_BlockedRetrievalTopN)->Arg(10)->Arg(100);

// Item-sharded single-user retrieval: the 20k-item catalogue splits into
// per-worker ranges on the shard pool and the per-shard top-k candidates
// merge by (score, item). Tracks shard scaling of single-request latency;
// compare against BM_BlockedRetrievalTopN (the unsharded scan) — with one
// worker the delta is pure dispatch+merge overhead, with several it is the
// per-request speedup (GNMR_SHARD_WORKERS governs the pool size).
void BM_ShardedRetrievalTopN(benchmark::State& state) {
  const int64_t k = state.range(0);
  serve::ExactRetriever retriever(GlobalModel(), nullptr,
                                 serve::ItemShardMode::kOn);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveTopN(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  state.counters["shard_workers"] =
      static_cast<double>(tensor::ShardWorkers());
}
BENCHMARK(BM_ShardedRetrievalTopN)->Arg(10)->Arg(100);

// Batched retrieval with user blocks fanned over the shard pool (the
// parallel counterpart of BM_BatchRetrieval).
void BM_ShardedBatchRetrieval(benchmark::State& state) {
  const int64_t batch = state.range(0);
  serve::ExactRetriever retriever(GlobalModel(), nullptr,
                                 serve::ItemShardMode::kOn);
  std::vector<int64_t> users(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    users[static_cast<size_t>(i)] = (i * 131) % kUsers;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveBatch(users, 10));
  }
  state.SetItemsProcessed(state.iterations() * batch);  // users/sec
}
BENCHMARK(BM_ShardedBatchRetrieval)->Arg(64)->Arg(256);

// IVF single-user retrieval at k = 10: probe nprobe of the 64 clusters,
// scan only their posting lists. Compare against BM_BlockedRetrievalTopN
// (the exhaustive scan) — the speedup is ~nlist/nprobe minus probe + merge
// overhead, and the recall it buys is logged right next to it.
void BM_IvfRetrievalTopN(benchmark::State& state) {
  const int64_t k = 10;
  const int64_t nprobe = state.range(0);
  serve::IvfRetriever retriever(GlobalIvfModel(), nullptr, nprobe,
                                serve::ItemShardMode::kOff);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveTopN(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  serve::RetrieverStats stats = retriever.Stats();
  state.counters["nprobe"] = static_cast<double>(nprobe);
  state.counters["recall_at_10"] = MeasuredIvfRecall(nprobe, k);
  state.counters["scanned_frac"] =
      stats.requests == 0
          ? 0.0
          : static_cast<double>(stats.scanned_items) /
                (static_cast<double>(stats.requests) *
                 static_cast<double>(kItems));
}
BENCHMARK(BM_IvfRetrievalTopN)->Arg(8)->Arg(16);

// GlobalIvfModel's embeddings with int8 codes attached: deterministic
// k-means reproduces the identical clustering, so the probe sets — and
// therefore the candidate coverage — match the float IVF benches exactly;
// only the bytes-per-scanned-item change.
std::shared_ptr<const core::ServingModel> GlobalQuantIvfModel() {
  static std::shared_ptr<const core::ServingModel> model = [] {
    core::ServingModel m = *GlobalIvfModel();
    GNMR_CHECK(core::BuildIvfIndex(&m, kIvfNlist, /*quantize=*/true).ok());
    return std::make_shared<const core::ServingModel>(std::move(m));
  }();
  return model;
}

// Recall@k of the quantized two-phase scan vs the exact scan, cached like
// MeasuredIvfRecall (the delta against the float IVF recall at the same
// nprobe is the cost of int8 pool selection).
double MeasuredQuantIvfRecall(int64_t nprobe, int64_t rerank_k, int64_t k) {
  static std::map<std::tuple<int64_t, int64_t, int64_t>, double> cache;
  const auto key = std::make_tuple(nprobe, rerank_k, k);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  serve::ExactRetriever exact(GlobalQuantIvfModel(), nullptr,
                              serve::ItemShardMode::kOff);
  serve::IvfRetriever quant(GlobalQuantIvfModel(), nullptr, nprobe,
                            serve::ItemShardMode::kOff, /*quantized=*/true,
                            rerank_k);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < 256; ++u) users.push_back((u * 131) % kUsers);
  const double recall = eval::RetrievalRecallAtK(exact, quant, users, k);
  cache[key] = recall;
  return recall;
}

// The quantized tier at k = 10: same probe sets as BM_IvfRetrievalTopN
// (deterministic clustering), but phase 1 streams int8 codes + scales
// instead of float rows and phase 2 reranks only rerank_k candidates
// exactly. code_frac is the quantized scan's share of its own streamed
// bytes; compare scanned_frac * bytes-per-item against the float case for
// the ~4x bandwidth cut, and the adjacent recall counters for its price.
void BM_IvfQuantizedTopN(benchmark::State& state) {
  const int64_t k = 10;
  const int64_t nprobe = state.range(0);
  const int64_t rerank_k = state.range(1);
  serve::IvfRetriever retriever(GlobalQuantIvfModel(), nullptr, nprobe,
                                serve::ItemShardMode::kOff,
                                /*quantized=*/true, rerank_k);
  GNMR_CHECK(retriever.quantized());
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveTopN(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  serve::RetrieverStats stats = retriever.Stats();
  state.counters["nprobe"] = static_cast<double>(nprobe);
  state.counters["rerank_k"] = static_cast<double>(rerank_k);
  state.counters["recall_at_10"] = MeasuredQuantIvfRecall(nprobe, rerank_k, k);
  state.counters["scanned_frac"] =
      stats.requests == 0
          ? 0.0
          : static_cast<double>(stats.scanned_items) /
                (static_cast<double>(stats.requests) *
                 static_cast<double>(kItems));
  state.counters["code_frac"] =
      stats.scanned_bytes == 0
          ? 0.0
          : static_cast<double>(stats.scanned_code_bytes) /
                static_cast<double>(stats.scanned_bytes);
}
BENCHMARK(BM_IvfQuantizedTopN)
    ->Args({8, 128})
    ->Args({16, 64})
    ->Args({16, 128});

// GlobalIvfModel's embeddings with the HNSW graph attached alongside the
// IVF index (each strategy reads its own): identical geometry, so the
// graph-walk timings compare directly against the float and quantized
// IVF scans above.
std::shared_ptr<const core::ServingModel> GlobalHnswModel() {
  static std::shared_ptr<const core::ServingModel> model = [] {
    core::ServingModel m = *GlobalIvfModel();
    GNMR_CHECK(core::BuildHnswIndex(&m, /*m=*/16, /*ef_construction=*/128)
                   .ok());
    return std::make_shared<const core::ServingModel>(std::move(m));
  }();
  return model;
}

// Recall@k of the graph walk vs the exact scan at one ef_search, cached
// like the IVF recalls (same 256-user sample, so the counters line up
// across strategies).
double MeasuredHnswRecall(int64_t ef_search, int64_t k) {
  static std::map<std::pair<int64_t, int64_t>, double> cache;
  const auto key = std::make_pair(ef_search, k);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  serve::ExactRetriever exact(GlobalHnswModel(), nullptr,
                              serve::ItemShardMode::kOff);
  serve::HnswRetriever hnsw(GlobalHnswModel(), nullptr, ef_search);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < 256; ++u) users.push_back((u * 131) % kUsers);
  const double recall = eval::RetrievalRecallAtK(exact, hnsw, users, k);
  cache[key] = recall;
  return recall;
}

// The graph tier at k = 10: greedy descent + level-0 beam instead of a
// posting-list scan. eval_frac is the per-query distance-evaluation share
// of the catalogue (the sub-linearity ratio — compare against the IVF
// scanned_frac at matched recall_at_10), hops_per_q the nodes expanded.
void BM_HnswTopN(benchmark::State& state) {
  const int64_t k = 10;
  const int64_t ef_search = state.range(0);
  serve::HnswRetriever retriever(GlobalHnswModel(), nullptr, ef_search);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveTopN(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  serve::RetrieverStats stats = retriever.Stats();
  state.counters["ef_search"] = static_cast<double>(ef_search);
  state.counters["recall_at_10"] = MeasuredHnswRecall(ef_search, k);
  state.counters["eval_frac"] =
      stats.requests == 0
          ? 0.0
          : static_cast<double>(stats.scanned_items) /
                (static_cast<double>(stats.requests) *
                 static_cast<double>(kItems));
  state.counters["hops_per_q"] =
      stats.requests == 0 ? 0.0
                          : static_cast<double>(stats.hops) /
                                static_cast<double>(stats.requests);
}
BENCHMARK(BM_HnswTopN)->Arg(32)->Arg(64)->Arg(128);

// Batched HNSW retrieval: sequential per-user walks fanned across user
// blocks, the graph analogue of BM_IvfBatchRetrieval.
void BM_HnswBatchRetrieval(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t ef_search = 64;
  serve::HnswRetriever retriever(GlobalHnswModel(), nullptr, ef_search);
  std::vector<int64_t> users(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    users[static_cast<size_t>(i)] = (i * 131) % kUsers;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveBatch(users, 10));
  }
  state.SetItemsProcessed(state.iterations() * batch);  // users/sec
  state.counters["ef_search"] = static_cast<double>(ef_search);
  state.counters["recall_at_10"] = MeasuredHnswRecall(ef_search, 10);
}
BENCHMARK(BM_HnswBatchRetrieval)->Arg(64)->Arg(256);

// Batched IVF retrieval: per-user probe + scan fanned across user blocks
// (the approximate analogue of BM_BatchRetrieval).
void BM_IvfBatchRetrieval(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t nprobe = 8;
  serve::IvfRetriever retriever(GlobalIvfModel(), nullptr, nprobe,
                                serve::ItemShardMode::kOff);
  std::vector<int64_t> users(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    users[static_cast<size_t>(i)] = (i * 131) % kUsers;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveBatch(users, 10));
  }
  state.SetItemsProcessed(state.iterations() * batch);  // users/sec
  state.counters["nprobe"] = static_cast<double>(nprobe);
  state.counters["recall_at_10"] = MeasuredIvfRecall(nprobe, 10);
}
BENCHMARK(BM_IvfBatchRetrieval)->Arg(64)->Arg(256);

// Batched retrieval amortises the item tiles across a user block; under
// the default serial backend the blocks run in order on one thread.
void BM_BatchRetrieval(benchmark::State& state) {
  const int64_t batch = state.range(0);
  serve::ExactRetriever retriever(GlobalModel());
  std::vector<int64_t> users(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    users[static_cast<size_t>(i)] = (i * 131) % kUsers;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever.RetrieveBatch(users, 10));
  }
  state.SetItemsProcessed(state.iterations() * batch);  // users/sec
}
BENCHMARK(BM_BatchRetrieval)->Arg(16)->Arg(64)->Arg(256);

// Warm cache: Zipf traffic against the default-capacity cache after a
// pre-population pass; nearly every request is a hit.
void BM_ServiceZipfWarm(benchmark::State& state) {
  const int64_t k = 10;
  serve::RecService service(GlobalModel());
  std::vector<int64_t> users =
      serve::ZipfRequestStream(kUsers, 1 << 14, 1.1, 131);
  for (int64_t u : users) service.Recommend(u, k);  // pre-populate
  size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Recommend(users[cursor], k));
    cursor = (cursor + 1) % users.size();
  }
  state.SetItemsProcessed(state.iterations());  // requests/sec
  state.counters["hit_rate"] = service.stats().HitRate();
}
BENCHMARK(BM_ServiceZipfWarm);

// Cold cache: the cache is sized far below the user population and users
// arrive round-robin, so the LRU thrashes and ~every request pays full
// retrieval. The gap to BM_ServiceZipfWarm is the cache's value.
void BM_ServiceColdMisses(benchmark::State& state) {
  const int64_t k = 10;
  serve::RecService::Options options;
  options.cache_capacity_per_shard = 64;  // 8 shards -> 512 users cached
  serve::RecService service(GlobalModel(), nullptr, options);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Recommend(user, k));
    user = (user + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations());  // requests/sec
  state.counters["hit_rate"] = service.stats().HitRate();
}
BENCHMARK(BM_ServiceColdMisses);

// ---------------------------------------------------------------------------
// Closed-loop tail-latency harness (--closed_loop).
// ---------------------------------------------------------------------------

struct PhaseResult {
  std::string name;
  uint64_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  obs::HistogramSnapshot latency;  // nanoseconds
};

// Replays `stream` across `threads` workers. period_ns > 0 paces requests
// at one global schedule (request i is due at i * period_ns from phase
// start) and measures completion - due; period_ns == 0 runs closed-loop
// (back-to-back) and measures per-call time. `on_request` (optional) runs
// on a side thread against the request index counter — the swap phase
// uses it to fire SwapModel mid-traffic.
PhaseResult RunPhase(const std::string& name, serve::RecService* service,
                     const std::vector<int64_t>& stream, int64_t k,
                     int64_t threads, uint64_t period_ns,
                     const std::function<void(const std::atomic<uint64_t>&)>&
                         on_request = nullptr) {
  obs::Histogram latency;
  std::atomic<uint64_t> started{0};
  util::Stopwatch phase_timer;
  std::thread controller;
  if (on_request != nullptr) {
    controller = std::thread([&] { on_request(started); });
  }
  std::vector<std::thread> workers;
  for (int64_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < stream.size();
           i += static_cast<size_t>(threads)) {
        uint64_t begin_ns;
        if (period_ns > 0) {
          // Deadline pacing: wait for this request's slot in the global
          // schedule, then charge everything from the slot — including
          // time the service kept us queued past it.
          const uint64_t due_ns = static_cast<uint64_t>(i) * period_ns;
          while (phase_timer.ElapsedNanos() < due_ns) {
            std::this_thread::yield();
          }
          begin_ns = due_ns;
        } else {
          begin_ns = phase_timer.ElapsedNanos();
        }
        std::vector<serve::RecEntry> recs = service->Recommend(stream[i], k);
        volatile int64_t sink = recs.empty() ? -1 : recs[0].item;
        (void)sink;
        latency.Record(phase_timer.ElapsedNanos() - begin_ns);
        started.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = phase_timer.ElapsedSeconds();
  if (controller.joinable()) controller.join();
  PhaseResult out;
  out.name = name;
  out.requests = static_cast<uint64_t>(stream.size());
  out.seconds = seconds;
  out.qps = seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0;
  out.latency = latency.Snapshot();
  return out;
}

void AppendPhaseJson(std::ostringstream* out, const PhaseResult& r,
                     bool* first) {
  if (!*first) *out << ",";
  *first = false;
  std::ostringstream qps;
  qps.precision(6);
  qps << r.qps;
  *out << "\"" << r.name << "\":{\"requests\":" << r.requests
       << ",\"qps\":" << qps.str() << ",\"latency_ns\":" << r.latency.ToJson()
       << "}";
}

int RunClosedLoop(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int64_t k = flags.GetInt("k", 10);
  const int64_t threads = flags.GetInt("threads", 2);
  const double zipf = flags.GetDouble("zipf", 1.1);
  const int64_t warmup_n = flags.GetInt("warmup", 16384);
  const int64_t steady_n = flags.GetInt("steady", 30000);
  const int64_t swap_n = flags.GetInt("swap", 20000);
  const int64_t cold_n = flags.GetInt("cold", 1500);
  const double target_qps = flags.GetDouble("target_qps", 0.0);
  const std::string retriever_name = flags.GetString("retriever", "exact");
  const std::string out_path = flags.GetString("out", "");
  const std::string trace_json = flags.GetString("trace_json", "");
  const std::string metrics_json = flags.GetString("metrics_json", "");
  GNMR_CHECK(retriever_name == "exact" || retriever_name == "ivf")
      << "--retriever must be exact or ivf";

  serve::RecService::Options options;
  options.metrics = &obs::MetricsRegistry::Global();
  std::shared_ptr<const core::ServingModel> model;
  if (retriever_name == "ivf") {
    model = GlobalIvfModel();
    options.retriever = serve::RetrieverKind::kIvf;
  } else {
    model = GlobalModel();
  }
  serve::RecService service(model, nullptr, options);

  // Phase 1: warm up unpaced; its throughput sizes the paced phases.
  std::vector<int64_t> warm_stream =
      serve::ZipfRequestStream(kUsers, warmup_n, zipf, 607);
  PhaseResult warmup =
      RunPhase("warmup", &service, warm_stream, k, threads, 0);

  // A sustainable schedule: tails then measure service time + transient
  // queueing, not a queue growing without bound for the whole phase.
  const double paced_qps =
      target_qps > 0.0 ? target_qps : 0.6 * warmup.qps;
  const uint64_t period_ns =
      paced_qps > 0.0 ? static_cast<uint64_t>(1e9 / paced_qps) : 0;

  // Phase 2: steady state — warm cache, paced Zipf traffic.
  std::vector<int64_t> steady_stream =
      serve::ZipfRequestStream(kUsers, steady_n, zipf, 613);
  PhaseResult steady =
      RunPhase("steady", &service, steady_stream, k, threads, period_ns);

  // Phase 3: same paced traffic with a hot swap fired ~40% in; the new
  // cache generation turns the request head into misses and the tail
  // shows how the swap bleeds into user-visible latency.
  std::vector<int64_t> swap_stream =
      serve::ZipfRequestStream(kUsers, swap_n, zipf, 617);
  const uint64_t swap_at = static_cast<uint64_t>(swap_n) * 2 / 5;
  PhaseResult swapped = RunPhase(
      "swap", &service, swap_stream, k, threads, period_ns,
      [&](const std::atomic<uint64_t>& started) {
        while (started.load(std::memory_order_relaxed) < swap_at) {
          std::this_thread::yield();
        }
        service.SwapModel(model);
      });

  // Phase 4: cache-cold — distinct users round-robin, so ~every request
  // pays full retrieval. Unpaced: the cold rate is retrieval-bound and a
  // warm-derived schedule would just accumulate unbounded queue delay.
  std::vector<int64_t> cold_stream(static_cast<size_t>(cold_n));
  for (int64_t i = 0; i < cold_n; ++i) {
    cold_stream[static_cast<size_t>(i)] = (i * 131) % kUsers;
  }
  service.InvalidateCache();
  // Tracing is on through the cold phase so the exported trace carries
  // the full miss-path nesting (recommend -> retrieve -> scan); a span is
  // ~100ns against a ~300us miss, so the measurement is unperturbed.
  obs::SetTraceEnabled(true);
  PhaseResult cold = RunPhase("cold", &service, cold_stream, k, threads, 0);
  obs::SetTraceEnabled(false);

  // Phase 5: tracing overhead on the warm hit path — the same unpaced
  // stream with spans off, then on (at the service's sampling period).
  // Means are exact; the histogram p50s are bucket-quantized (<= 12.5%
  // wide), so both are recorded. Two controls: the cold phase just
  // invalidated the cache, so re-warm first (unmeasured) — both runs must
  // see the same ~100% hit rate; and the comparison runs single-threaded —
  // the hit path is sub-microsecond, where scheduler preemption between
  // competing workers swamps the nanoseconds being measured.
  // Five paired off/on rounds; the reported overhead is the MEDIAN of the
  // per-round percentages. Pairing matters: the true span cost is tens of
  // nanoseconds against a ~250ns p50, while this machine drifts more than
  // that between phases (frequency scaling, cache pressure from the
  // earlier phases). Comparing medians of pooled off vs pooled on runs
  // measures the drift; the within-round pair cancels it. Quantiles are
  // interpolated — the plain P50() snaps to bucket boundaries, so an
  // overhead below one bucket width (12.5%) would read as either 0% or a
  // full step depending on where the distribution sits.
  RunPhase("rewarm", &service, warm_stream, k, /*threads=*/1, 0);
  std::vector<double> p50s_off, p50s_on, means_off, means_on;
  std::vector<double> p50_pcts, mean_pcts;
  for (int round = 0; round < 5; ++round) {
    obs::SetTraceEnabled(false);
    PhaseResult off =
        RunPhase("trace_off", &service, warm_stream, k, /*threads=*/1, 0);
    obs::SetTraceEnabled(true);
    PhaseResult on =
        RunPhase("trace_on", &service, warm_stream, k, /*threads=*/1, 0);
    obs::SetTraceEnabled(false);
    const double p50_o = off.latency.QuantileInterpolated(0.50);
    const double p50_n = on.latency.QuantileInterpolated(0.50);
    p50s_off.push_back(p50_o);
    p50s_on.push_back(p50_n);
    means_off.push_back(off.latency.Mean());
    means_on.push_back(on.latency.Mean());
    if (p50_o > 0.0) p50_pcts.push_back(100.0 * (p50_n - p50_o) / p50_o);
    if (off.latency.Mean() > 0.0) {
      mean_pcts.push_back(100.0 * (on.latency.Mean() - off.latency.Mean()) /
                          off.latency.Mean());
    }
  }
  auto median_of = [](std::vector<double>* v) {
    if (v->empty()) return 0.0;
    std::sort(v->begin(), v->end());
    return (*v)[v->size() / 2];
  };
  const double p50_off = median_of(&p50s_off);
  const double p50_on = median_of(&p50s_on);
  const double mean_off = median_of(&means_off);
  const double mean_on = median_of(&means_on);
  const double p50_overhead_pct = median_of(&p50_pcts);
  const double mean_overhead_pct = median_of(&mean_pcts);

  std::ostringstream json;
  json << "{\"config\":{\"users\":" << kUsers << ",\"items\":" << kItems
       << ",\"width\":" << kWidth << ",\"k\":" << k
       << ",\"threads\":" << threads << ",\"zipf\":" << zipf
       << ",\"retriever\":\"" << retriever_name
       << "\",\"paced_qps\":" << static_cast<int64_t>(paced_qps)
       << ",\"trace_sample_period\":" << options.trace_sample_period
       << "},\"phases\":{";
  bool first = true;
  AppendPhaseJson(&json, warmup, &first);
  AppendPhaseJson(&json, steady, &first);
  AppendPhaseJson(&json, swapped, &first);
  AppendPhaseJson(&json, cold, &first);
  json << "},\"tracing_overhead\":{";
  json.precision(6);
  json << "\"p50_off_ns\":" << p50_off << ",\"p50_on_ns\":" << p50_on
       << ",\"p50_overhead_pct\":" << p50_overhead_pct
       << ",\"mean_off_ns\":" << mean_off << ",\"mean_on_ns\":" << mean_on
       << ",\"mean_overhead_pct\":" << mean_overhead_pct
       << ",\"spans_recorded\":" << obs::TraceSnapshot().size() << "}}";

  const std::string doc = json.str();
  std::printf("%s\n", doc.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    GNMR_CHECK(out.is_open()) << "cannot write " << out_path;
    out << doc << "\n";
  }
  if (!trace_json.empty()) {
    std::ofstream out(trace_json, std::ios::trunc);
    GNMR_CHECK(out.is_open()) << "cannot write " << trace_json;
    out << obs::TraceToChromeJson() << "\n";
  }
  if (!metrics_json.empty()) {
    std::ofstream out(metrics_json, std::ios::trunc);
    GNMR_CHECK(out.is_open()) << "cannot write " << metrics_json;
    out << obs::MetricsRegistry::Global().ToJson() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--closed_loop", 13) == 0) {
      return RunClosedLoop(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
