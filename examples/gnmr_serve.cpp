// Serving-path walkthrough: train GNMR (or load a saved artifact), stand
// up a RecService over the ServingModel snapshot, replay a Zipf-distributed
// request stream across threads, hot-swap a refreshed snapshot mid-stream,
// and report cache hit rates / throughput for each phase.
//
//   ./build/examples/gnmr_serve [--epochs=8] [--scale=0.3] [--k=10]
//                               [--threads=4] [--requests=20000]
//                               [--zipf=1.1] [--model=path] [--mmap]
//                               [--save=path]
//                               [--backend=sharded|serial]
//                               [--shard_workers=N]
//                               [--retriever=exact|ivf|hnsw] [--nlist=N]
//                               [--nprobe=N] [--quantized] [--rerank_k=N]
//                               [--hnsw_m=N] [--ef_search=N]
//                               [--metrics_json=path] [--trace]
//                               [--trace_json=path] [--trace_sample=N]
//
// --model=path skips training and loads a SaveServingModel artifact;
// --save=path writes the artifact (with whatever index it carries) for
// later runs. --mmap opens the artifact zero-copy
// (core::LoadServingModelMapped): the embeddings serve straight out of
// the page cache, shared read-only across every process mapping the same
// file. --backend= selects the kernel backend (same choices as the
// GNMR_BACKEND env var; see src/tensor/backend.h): "sharded" (the
// default) or the "serial" reference. --shard_workers= sizes the shard
// pool used by the sharded backend and the item-sharded retriever (same as
// the GNMR_SHARD_WORKERS env var); 0 auto-sizes to one worker per hardware
// thread.
//
// --retriever=ivf serves through the clustered IVF index (approximate;
// see src/serve/ivf_retriever.h): --nlist= sets the cluster count used
// when the index must be built here (0 = tensor::kIvfDefaultNlist),
// --nprobe= the clusters probed per request (0 = default). An artifact
// loaded with --model= reuses its embedded index when it has one; --save=
// writes an artifact carrying the index. Catalogues smaller than
// tensor::kIvfMinItemsForIndex fall back to the exact scan.
//
// --quantized serves the probed posting lists through the two-phase int8
// code scan (approximate code scan + exact float rerank of the rerank_k
// best candidates; see src/serve/ivf_retriever.h). Indexes built here get
// int8 codes attached, and --save= then writes the code sections too; an
// artifact loaded without codes serves float silently.
// --rerank_k= bounds the exact-rerank pool (0 =
// tensor::kIvfDefaultRerankK).
//
// --retriever=hnsw serves through the layered small-world graph walk
// (approximate, sub-linear per query; see src/serve/hnsw_retriever.h):
// --hnsw_m= sets the neighbor cap used when the graph must be built here
// (0 = tensor::kHnswDefaultM), --ef_search= the level-0 beam width per
// request (0 = tensor::kHnswDefaultEfSearch). An artifact loaded with
// --model= reuses its embedded graph when it has one; --save= then writes
// an artifact carrying it. Catalogues smaller than
// tensor::kHnswMinItemsForIndex fall back to the exact scan. The final
// report adds hops and distance evaluations per query next to the MB
// streamed.
//
// Observability (src/obs/): --metrics_json= dumps the process metrics
// registry (service counters as gauges + the per-phase latency
// histograms) as JSON on exit. --trace (or --trace_json=, which implies
// it) records trace spans across the run; --trace_json= writes them as
// chrome://tracing / Perfetto JSON. --trace_sample=N spans 1 request in N
// on the serving fast path (default 16; 1 = every request).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include "src/core/gnmr_trainer.h"
#include "src/core/model_io.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/serve/hnsw_retriever.h"
#include "src/serve/ivf_retriever.h"
#include "src/serve/rec_service.h"
#include "src/serve/zipf_stream.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_pool.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"

using namespace gnmr;

namespace {

// Replays `stream` across `num_threads` workers (striped) and prints the
// phase's throughput and cache behaviour.
void ReplayPhase(const char* phase, serve::RecService* service,
                 const std::vector<int64_t>& stream, int64_t k,
                 int64_t num_threads) {
  serve::ServiceStats before = service->stats();
  util::Stopwatch timer;
  std::vector<std::thread> workers;
  for (int64_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < stream.size();
           i += static_cast<size_t>(num_threads)) {
        std::vector<serve::RecEntry> recs = service->Recommend(stream[i], k);
        volatile int64_t sink = recs.empty() ? -1 : recs[0].item;
        (void)sink;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  double seconds = timer.ElapsedSeconds();
  serve::ServiceStats after = service->stats();
  uint64_t requests = after.requests - before.requests;
  uint64_t hits = after.cache_hits - before.cache_hits;
  std::printf(
      "%-22s %8llu req  %7.0f req/s  hit rate %5.1f%%  "
      "mean latency %6.1f us\n",
      phase, static_cast<unsigned long long>(requests),
      static_cast<double>(requests) / seconds,
      100.0 * static_cast<double>(hits) / static_cast<double>(requests),
      static_cast<double>(after.latency_ns_total - before.latency_ns_total) /
          1e3 / static_cast<double>(requests));
}

// The run's end-to-end latency distribution per serving phase, straight
// from the service's histograms (nanosecond recordings, printed in us).
void PrintLatencyTable(serve::RecService* service) {
  struct Row {
    const char* label;
    const char* histogram;
  };
  const Row rows[] = {
      {"cache hit", "serve.latency.hit"},
      {"coalesced join", "serve.latency.coalesced"},
      {"full miss", "serve.latency.miss"},
      {"exact fallback", "serve.latency.exact"},
      {"batch call", "serve.latency.batch"},
  };
  std::printf("\nlatency by phase (us):\n");
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "phase", "count", "p50",
              "p95", "p99", "max");
  for (const Row& row : rows) {
    obs::HistogramSnapshot snap =
        service->metrics().HistogramOf(row.histogram).Snapshot();
    if (snap.count == 0) continue;
    std::printf("%-16s %10llu %10.1f %10.1f %10.1f %10.1f\n", row.label,
                static_cast<unsigned long long>(snap.count),
                static_cast<double>(snap.P50()) / 1e3,
                static_cast<double>(snap.P95()) / 1e3,
                static_cast<double>(snap.P99()) / 1e3,
                static_cast<double>(snap.max) / 1e3);
  }
}

bool WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << body << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.3);
  int64_t epochs = flags.GetInt("epochs", 8);
  int64_t k = flags.GetInt("k", 10);
  int64_t num_threads = flags.GetInt("threads", 4);
  int64_t num_requests = flags.GetInt("requests", 20000);
  double zipf = flags.GetDouble("zipf", 1.1);
  std::string model_path = flags.GetString("model", "");
  bool use_mmap = flags.GetBool("mmap", false);
  std::string save_path = flags.GetString("save", "");
  std::string retriever_name = flags.GetString("retriever", "exact");
  int64_t nlist = flags.GetInt("nlist", 0);
  int64_t nprobe = flags.GetInt("nprobe", 0);
  bool quantized = flags.GetBool("quantized", false);
  int64_t rerank_k = flags.GetInt("rerank_k", 0);
  int64_t hnsw_m = flags.GetInt("hnsw_m", 0);
  int64_t ef_search = flags.GetInt("ef_search", 0);
  std::string metrics_json = flags.GetString("metrics_json", "");
  std::string trace_json = flags.GetString("trace_json", "");
  int64_t trace_sample = flags.GetInt("trace_sample", 16);
  const bool tracing = flags.GetBool("trace", false) || !trace_json.empty();
  if (tracing) obs::SetTraceEnabled(true);
  if (flags.Has("shard_workers")) {
    tensor::SetShardWorkers(flags.GetInt("shard_workers", 0));
  }
  if (flags.Has("backend")) {
    tensor::SetBackend(flags.GetString("backend", ""));
  }
  if (retriever_name != "exact" && retriever_name != "ivf" &&
      retriever_name != "hnsw") {
    std::fprintf(stderr, "unknown --retriever=%s (exact|ivf|hnsw)\n",
                 retriever_name.c_str());
    return 1;
  }

  // 1. Obtain the serving artifact: load from disk, or train + export.
  //    Either way the training dataset provides the seen-item filter.
  data::Dataset full = data::GenerateSynthetic(data::TaobaoLike(scale));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  core::ServingModel artifact;
  core::GnmrConfig config;
  config.epochs = epochs;
  config.verbose = false;
  std::unique_ptr<core::GnmrTrainer> trainer;
  if (!model_path.empty()) {
    util::Result<core::ServingModel> loaded =
        use_mmap ? core::LoadServingModelMapped(model_path)
                 : core::LoadServingModel(model_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", model_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    artifact = std::move(loaded).value();
    std::printf("loaded snapshot %s (%lld users x %lld items%s%s%s)\n",
                model_path.c_str(),
                static_cast<long long>(artifact.num_users),
                static_cast<long long>(artifact.num_items),
                artifact.has_ivf() ? ", with IVF index" : "",
                artifact.has_hnsw() ? ", with HNSW graph" : "",
                artifact.is_mapped() ? ", mmap zero-copy" : "");
  } else {
    trainer = std::make_unique<core::GnmrTrainer>(config, split.train);
    std::printf("training GNMR (%lld epochs, %lld users x %lld items)...\n",
                static_cast<long long>(epochs),
                static_cast<long long>(full.num_users),
                static_cast<long long>(full.num_items));
    trainer->Train();
    trainer->model().RefreshInferenceCache();
    artifact = core::ExportServingModel(trainer->model());
  }

  // 1b. Retrieval strategy: attach the IVF index before the snapshot is
  //     frozen. A loaded artifact may bring its own index; --nlist forces
  //     a rebuild at a different cluster count.
  serve::RecService::Options service_options;
  // Hot swaps reload the artifact the same way it was first opened.
  service_options.mmap_artifacts = use_mmap;
  // One process-wide registry so --metrics_json exports everything the
  // run recorded in a single document.
  service_options.metrics = &obs::MetricsRegistry::Global();
  service_options.trace_sample_period = trace_sample;
  if (retriever_name == "ivf") {
    if (artifact.num_items < tensor::kIvfMinItemsForIndex) {
      std::printf("catalogue of %lld items is below "
                  "kIvfMinItemsForIndex=%lld; serving exact instead\n",
                  static_cast<long long>(artifact.num_items),
                  static_cast<long long>(tensor::kIvfMinItemsForIndex));
    } else {
      // Rebuild when the artifact has no index, when --nlist overrides the
      // cluster count, or when --quantized needs codes the embedded index
      // doesn't carry.
      if (!artifact.has_ivf() || flags.Has("nlist") ||
          (quantized && !artifact.ivf->has_codes())) {
        util::Status s = core::BuildIvfIndex(&artifact, nlist, quantized);
        if (!s.ok()) {
          std::fprintf(stderr, "BuildIvfIndex: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      service_options.retriever = serve::RetrieverKind::kIvf;
      service_options.nlist = nlist;
      if (nprobe > 0) service_options.nprobe = nprobe;
      service_options.quantized = quantized;
      service_options.rerank_k = rerank_k;
      std::printf("IVF index: %lld lists, probing %lld per request%s\n",
                  static_cast<long long>(artifact.ivf->nlist()),
                  static_cast<long long>(std::min(
                      nprobe > 0 ? nprobe : tensor::kIvfDefaultNprobe,
                      artifact.ivf->nlist())),
                  quantized && artifact.ivf->has_codes()
                      ? ", int8 code scan + exact rerank"
                      : "");
    }
  }
  if (retriever_name == "hnsw") {
    if (artifact.num_items < tensor::kHnswMinItemsForIndex) {
      std::printf("catalogue of %lld items is below "
                  "kHnswMinItemsForIndex=%lld; serving exact instead\n",
                  static_cast<long long>(artifact.num_items),
                  static_cast<long long>(tensor::kHnswMinItemsForIndex));
    } else {
      // Rebuild when the artifact has no graph or --hnsw_m overrides the
      // neighbor cap it was built with.
      if (!artifact.has_hnsw() || flags.Has("hnsw_m")) {
        util::Status s =
            core::BuildHnswIndex(&artifact, hnsw_m, /*ef_construction=*/0);
        if (!s.ok()) {
          std::fprintf(stderr, "BuildHnswIndex: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      service_options.retriever = serve::RetrieverKind::kHnsw;
      service_options.hnsw_m = hnsw_m;
      service_options.ef_search = ef_search;
      std::printf(
          "HNSW graph: %lld levels, m=%lld, ef_construction=%lld, "
          "ef_search=%lld per request\n",
          static_cast<long long>(artifact.hnsw->num_levels),
          static_cast<long long>(artifact.hnsw->m),
          static_cast<long long>(artifact.hnsw->ef_construction),
          static_cast<long long>(
              ef_search > 0 ? ef_search : tensor::kHnswDefaultEfSearch));
    }
  }
  if (!save_path.empty()) {
    // The artifact carries whatever index was attached above, so
    // --retriever=ivf (or =hnsw) --save= upgrades an artifact in place.
    util::Status s = core::SaveServingModel(artifact, save_path);
    std::printf("saved artifact to %s: %s\n", save_path.c_str(),
                s.ToString().c_str());
  }
  auto snapshot =
      std::make_shared<const core::ServingModel>(std::move(artifact));

  // 2. Stand up the service: retriever + sharded LRU cache, filtering
  //    items each user already purchased in train. A loaded artifact only
  //    gets the filter when the regenerated dataset actually matches its
  //    shape (i.e. --scale matches the saving run); otherwise the train
  //    split describes different users and filtering would be wrong.
  std::shared_ptr<const serve::SeenItems> seen;
  if (split.train.num_users == snapshot->num_users &&
      split.train.num_items == snapshot->num_items) {
    seen = std::make_shared<const serve::SeenItems>(serve::SeenItems::FromDataset(
        split.train, /*target_behavior_only=*/true));
  } else {
    std::printf("dataset at --scale=%.2f (%lld x %lld) does not match the "
                "loaded snapshot; serving without seen-item filtering\n",
                scale, static_cast<long long>(split.train.num_users),
                static_cast<long long>(split.train.num_items));
  }
  serve::RecService service(snapshot, seen, service_options);
  std::printf("service up: catalogue %lld items (%s retrieval), "
              "filtering %lld seen pairs\n\n",
              static_cast<long long>(snapshot->num_items),
              service.retriever()->name(),
              static_cast<long long>(seen == nullptr ? 0 : seen->num_pairs()));

  // 3. Zipf request stream: a small head of users produces most traffic,
  //    which is what makes per-user caching effective.
  std::vector<int64_t> stream = serve::ZipfRequestStream(
      snapshot->num_users, num_requests, zipf, /*seed=*/2024);

  // 4. Phase A: cold cache. Phase B: same stream, warm cache.
  ReplayPhase("phase A (cold cache)", &service, stream, k, num_threads);
  ReplayPhase("phase B (warm cache)", &service, stream, k, num_threads);

  // 5. Hot swap: produce a v+1 snapshot (continued training when we own
  //    the trainer, else a reload of the same artifact) while phase B
  //    traffic could still be running, then replay to watch the cache
  //    refill under the new model version.
  if (trainer != nullptr) {
    trainer->TrainEpoch();
    trainer->model().RefreshInferenceCache();
    core::ServingModel next = core::ExportServingModel(trainer->model());
    if (service_options.retriever == serve::RetrieverKind::kIvf) {
      // A kIvf service only accepts snapshots that carry an index; the
      // fresh export doesn't, so re-cluster the refreshed embeddings
      // (re-quantizing when the quantized tier is live).
      util::Status s = core::BuildIvfIndex(&next, nlist, quantized);
      if (!s.ok()) {
        std::fprintf(stderr, "BuildIvfIndex: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    if (service_options.retriever == serve::RetrieverKind::kHnsw) {
      // Same for kHnsw: re-walk the refreshed embeddings into a new graph.
      util::Status s =
          core::BuildHnswIndex(&next, hnsw_m, /*ef_construction=*/0);
      if (!s.ok()) {
        std::fprintf(stderr, "BuildHnswIndex: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    service.SwapModel(
        std::make_shared<const core::ServingModel>(std::move(next)));
  } else if ((service_options.retriever == serve::RetrieverKind::kIvf &&
              flags.Has("nlist")) ||
             (service_options.retriever == serve::RetrieverKind::kHnsw &&
              flags.Has("hnsw_m"))) {
    // --nlist (or --hnsw_m) forced a rebuild of the loaded artifact's
    // index at startup; LoadAndSwap would re-read the disk artifact and
    // quietly revert to its embedded parameters, so swap the in-memory
    // snapshot (which carries the rebuilt index) instead.
    service.SwapModel(snapshot);
  } else {
    util::Status s = service.LoadAndSwap(model_path);
    if (!s.ok()) {
      std::fprintf(stderr, "swap failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("hot-swapped snapshot -> model version %llu\n",
              static_cast<unsigned long long>(service.model_version()));
  ReplayPhase("phase C (post-swap)", &service, stream, k, num_threads);
  ReplayPhase("phase D (re-warmed)", &service, stream, k, num_threads);

  // 6. Final report: counters, then the per-phase latency distribution
  //    from the histogram layer (quantiles, not flat averages — the mean
  //    hides exactly the tail a serving path is judged on).
  serve::ServiceStats stats = service.stats();
  std::printf("\ntotals: %llu requests, %.1f%% cache hit rate, "
              "%llu evictions, %llu swap(s)\n",
              static_cast<unsigned long long>(stats.requests),
              100.0 * stats.HitRate(),
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.swaps));
  PrintLatencyTable(&service);
  if (stats.retrieval.requests > 0) {
    std::printf("retrieval: %llu scans, %llu items scored (%.1f%% of "
                "exhaustive), %.1f MB streamed, %llu clusters probed\n",
                static_cast<unsigned long long>(stats.retrieval.requests),
                static_cast<unsigned long long>(
                    stats.retrieval.scanned_items),
                100.0 * static_cast<double>(stats.retrieval.scanned_items) /
                    (static_cast<double>(stats.retrieval.requests) *
                     static_cast<double>(snapshot->num_items)),
                static_cast<double>(stats.retrieval.scanned_bytes) / 1e6,
                static_cast<unsigned long long>(
                    stats.retrieval.probed_clusters));
    if (stats.retrieval.hops > 0) {
      std::printf("hnsw: %.1f hops/query, %.1f distance evals/query "
                  "(%.2f%% of catalogue per query)\n",
                  static_cast<double>(stats.retrieval.hops) /
                      static_cast<double>(stats.retrieval.requests),
                  static_cast<double>(stats.retrieval.scanned_items) /
                      static_cast<double>(stats.retrieval.requests),
                  100.0 * static_cast<double>(stats.retrieval.scanned_items) /
                      (static_cast<double>(stats.retrieval.requests) *
                       static_cast<double>(snapshot->num_items)));
    }
    if (stats.retrieval.scanned_code_bytes > 0) {
      std::printf("quantized: %.1f MB of int8 codes streamed (%.1f%% of "
                  "scan traffic), %llu items reranked exactly\n",
                  static_cast<double>(stats.retrieval.scanned_code_bytes) /
                      1e6,
                  100.0 *
                      static_cast<double>(stats.retrieval.scanned_code_bytes) /
                      static_cast<double>(stats.retrieval.scanned_bytes),
                  static_cast<unsigned long long>(
                      stats.retrieval.reranked_items));
    }
  }
  std::printf("\n");
  for (int64_t user = 0; user < std::min<int64_t>(3, snapshot->num_users);
       ++user) {
    std::printf("user %lld top-%lld:", static_cast<long long>(user),
                static_cast<long long>(k));
    for (const serve::RecEntry& e : service.Recommend(user, k)) {
      std::printf(" item%lld(%.2f)", static_cast<long long>(e.item), e.score);
    }
    std::printf("\n");
  }

  // 7. Observability exports. Service counters become gauges so the
  //    metrics document is self-contained (histograms live there already).
  if (!metrics_json.empty()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    serve::ServiceStats final_stats = service.stats();
    reg.GaugeOf("serve.requests").Set(static_cast<int64_t>(final_stats.requests));
    reg.GaugeOf("serve.cache_hits")
        .Set(static_cast<int64_t>(final_stats.cache_hits));
    reg.GaugeOf("serve.coalesced")
        .Set(static_cast<int64_t>(final_stats.coalesced));
    reg.GaugeOf("serve.swaps").Set(static_cast<int64_t>(final_stats.swaps));
    reg.GaugeOf("serve.cache.evictions")
        .Set(static_cast<int64_t>(final_stats.cache.evictions));
    reg.GaugeOf("serve.cache.entries")
        .Set(static_cast<int64_t>(final_stats.cache.entries));
    reg.GaugeOf("serve.retrieval.scanned_items")
        .Set(static_cast<int64_t>(final_stats.retrieval.scanned_items));
    if (!WriteTextFile(metrics_json, reg.ToJson())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_json.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_json.c_str());
  }
  if (!trace_json.empty()) {
    if (!WriteTextFile(trace_json, obs::TraceToChromeJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
      return 1;
    }
    std::printf("trace written to %s (%llu spans, %llu dropped) — load in "
                "chrome://tracing or ui.perfetto.dev\n",
                trace_json.c_str(),
                static_cast<unsigned long long>(obs::TraceSnapshot().size()),
                static_cast<unsigned long long>(obs::TraceDroppedEvents()));
  }
  return 0;
}
