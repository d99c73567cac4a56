// Recommendation service facade: model snapshot double-buffering + cache.
//
// RecService owns the online read path end to end: requests are answered
// from the RecCache when possible, otherwise from the current Retriever
// snapshot (exact full-catalogue scan, IVF approximate retrieval, or the
// HNSW graph walk — Options::retriever picks the strategy, and the
// service never touches a concrete scan type beyond constructing it). Model hot-swaps are
// zero-downtime — the next snapshot is built (or loaded from disk) while
// the current one keeps serving, then an atomic pointer swap + O(1) cache
// invalidation cut traffic over; in-flight requests finish on the snapshot
// they started with (shared_ptr pinning).
//
// Exact fallback: an approximate-backed (IVF or HNSW) service also keeps
// an ExactRetriever over the same snapshot; Recommend/RecommendBatch take a per-request
// `exact` knob that bypasses the approximate index (and the cache, whose
// entries are strategy-shaped) for callers that need the guaranteed
// full-catalogue answer — e.g. spot-checking recall in production.
#ifndef GNMR_SERVE_REC_SERVICE_H_
#define GNMR_SERVE_REC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/rec_cache.h"
#include "src/serve/retriever.h"
#include "src/tensor/kernel_tunables.h"
#include "src/util/status.h"

namespace gnmr {
namespace serve {

/// Retrieval strategy served by RecService (see retriever.h).
enum class RetrieverKind {
  /// ExactRetriever: full-catalogue blocked scan.
  kExact,
  /// IvfRetriever: clustered approximate retrieval. The serving model must
  /// carry an IVF index (core::BuildIvfIndex); LoadAndSwap builds one on
  /// the fly for artifacts that lack it.
  kIvf,
  /// HnswRetriever: graph-walk approximate retrieval, sub-linear per
  /// query. The serving model must carry an HNSW graph
  /// (core::BuildHnswIndex); LoadAndSwap builds one on the fly for
  /// artifacts that lack it.
  kHnsw,
};

/// Service-level counters. Latency covers Recommend/RecommendBatch
/// end-to-end (cache lookup + retrieval), per single-user request.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  /// Requests that piggybacked on another thread's in-flight retrieval of
  /// the same (user, k) instead of recomputing it (single-flight misses).
  uint64_t coalesced = 0;
  /// Requests that forced the exact scan on an IVF-backed service (the
  /// per-request `exact` knob).
  uint64_t exact_fallbacks = 0;
  uint64_t swaps = 0;
  /// Cumulative request latency in integer nanoseconds from the monotonic
  /// clock — the same readings the latency histograms record, so the mean
  /// here and the histogram quantiles describe one population.
  uint64_t latency_ns_total = 0;
  /// Version of the currently served snapshot (bumps on every swap).
  uint64_t model_version = 0;
  /// Cache counters summed across every cache generation this service has
  /// owned: each swap installs a fresh cache (eagerly freeing the stale
  /// lists) and retires the outgoing generation's hits/misses/evictions
  /// here, the way `retrieval` aggregates retired retrievers. `entries`
  /// counts only the live generation — retired entries are freed.
  CacheStats cache;
  /// Retrieval-side counters summed across every retriever this service
  /// has owned (current + retired snapshots): items scanned, clusters
  /// probed. scanned_items / (requests * catalogue) is the scan fraction
  /// the index saved.
  RetrieverStats retrieval;

  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_hits) / requests;
  }
  double MeanLatencyUs() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(latency_ns_total) / 1e3 / requests;
  }
};

/// Thread-safe top-N recommendation service over ServingModel snapshots.
class RecService {
 public:
  struct Options {
    int64_t cache_capacity_per_shard = 4096;
    int64_t cache_shards = 8;
    /// Retrieval strategy of the primary (cached) path.
    RetrieverKind retriever = RetrieverKind::kExact;
    /// kIvf: clusters probed per request (<= 0 picks the default, clamped
    /// to the index's nlist).
    int64_t nprobe = tensor::kIvfDefaultNprobe;
    /// kIvf: cluster count used when LoadAndSwap must build an index for
    /// an artifact that lacks one (<= 0 picks the default).
    int64_t nlist = 0;
    /// kIvf: serve the two-phase quantized scan (int8 code scan + exact
    /// rerank) when the snapshot's index carries codes. When LoadAndSwap
    /// builds an index for a codeless artifact it also quantizes —
    /// provided the catalogue clears tensor::kIvfQuantizeMinItems (below
    /// that the code tier's fixed overheads outweigh the bandwidth win).
    /// A snapshot whose index lacks codes silently serves the float scan
    /// (IvfRetriever::quantized() exposes the effective state).
    bool quantized = false;
    /// kIvf + quantized: exact-rerank pool size per request (<= 0 picks
    /// tensor::kIvfDefaultRerankK).
    int64_t rerank_k = 0;
    /// kHnsw: level-0 beam width per request (<= 0 picks
    /// tensor::kHnswDefaultEfSearch; a request's k can still raise the
    /// effective beam per call).
    int64_t ef_search = 0;
    /// kHnsw: neighbor cap used when LoadAndSwap must build a graph for an
    /// artifact that lacks one (<= 0 picks tensor::kHnswDefaultM).
    int64_t hnsw_m = 0;
    /// LoadAndSwap opens artifacts zero-copy (LoadServingModelMapped):
    /// the snapshot serves straight out of the page cache and load time is
    /// O(1) in the table size. Snapshot lifetime is unchanged — the
    /// mapping lives as long as any in-flight request pins the snapshot.
    bool mmap_artifacts = false;
    /// Registry the per-phase latency histograms live in
    /// ("serve.latency.hit" / ".coalesced" / ".miss" / ".exact" /
    /// ".batch", nanoseconds). nullptr (the default) gives the service a
    /// private registry so tests and co-hosted services stay isolated;
    /// binaries that export one metrics document pass
    /// &obs::MetricsRegistry::Global().
    obs::MetricsRegistry* metrics = nullptr;
    /// Trace-span sampling on the per-request fast path: with tracing
    /// enabled, 1 request in `trace_sample_period` (per thread) opens
    /// spans. Cache hits finish in ~1-2us, so spanning every one would
    /// dominate the path it measures; sampling keeps the overhead in the
    /// noise while the flame view stays representative. <= 1 spans every
    /// request.
    int64_t trace_sample_period = 16;
  };

  /// Serves from `model` (non-null), filtering each user's `seen` items
  /// when provided. `seen` is shared across swaps: LoadAndSwap keeps it,
  /// SwapModel may replace it. With Options::retriever == kIvf the model
  /// must carry an IVF index; with kHnsw, an HNSW graph.
  RecService(std::shared_ptr<const core::ServingModel> model,
             std::shared_ptr<const SeenItems> seen, Options options);
  explicit RecService(std::shared_ptr<const core::ServingModel> model,
                      std::shared_ptr<const SeenItems> seen = nullptr);

  /// Top-k for `user` under the configured strategy (best first, seen
  /// items excluded), served from cache when fresh. Concurrent misses for
  /// the same (user, k) coalesce: one thread retrieves while the rest wait
  /// on its in-flight result, so a thundering herd costs one retrieval
  /// instead of N; if the leader unwinds before publishing, waiters re-run
  /// the miss path (one is promoted to leader, the rest coalesce onto it)
  /// instead of surfacing its empty placeholder. `exact` forces the
  /// full-catalogue scan on an IVF-backed service, bypassing cache and
  /// flights (a no-op on an exact-backed service). `user` must fit in 32
  /// bits (the cache/flight key packing — checked). Thread-safe.
  std::vector<RecEntry> Recommend(int64_t user, int64_t k,
                                  bool exact = false);

  /// Batched Recommend: cache lookups first, then one blocked retrieval
  /// pass over the misses. Output order matches `users`; the same 32-bit
  /// user-id constraint and `exact` semantics as Recommend apply.
  std::vector<std::vector<RecEntry>> RecommendBatch(
      const std::vector<int64_t>& users, int64_t k, bool exact = false);

  /// Hot-swaps the served snapshot and invalidates the cache atomically.
  /// Pass `seen` to replace the filter sets (nullptr keeps the current
  /// ones). On a kIvf service the new model must carry an IVF index; on a
  /// kHnsw service, an HNSW graph.
  /// Concurrent Recommend calls never block on retrieval: they either
  /// finish on the old snapshot or start on the new one.
  void SwapModel(std::shared_ptr<const core::ServingModel> next,
                 std::shared_ptr<const SeenItems> seen = nullptr);

  /// Loads a ServingModel artifact (SaveServingModel) and swaps it in;
  /// the current snapshot serves until the load completes. Keeps the
  /// current seen sets. On a kIvf service an artifact without an
  /// index gets one built (Options::nlist) before the swap; on a kHnsw
  /// service an artifact without a graph gets one built (Options::hnsw_m).
  /// On error the service is untouched.
  util::Status LoadAndSwap(const std::string& path);

  /// The retrieval strategy currently serving (pin it by holding the
  /// returned ptr).
  std::shared_ptr<const Retriever> retriever() const;
  /// The exact-scan fallback over the same snapshot (the primary itself on
  /// an exact-backed service).
  std::shared_ptr<const ExactRetriever> exact_retriever() const;

  ServiceStats stats() const;
  uint64_t model_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The registry holding this service's latency histograms — the one
  /// passed via Options::metrics, else the service's private registry.
  obs::MetricsRegistry& metrics() const {
    return options_.metrics != nullptr ? *options_.metrics : *owned_metrics_;
  }

  /// Drops all cached lists without swapping the model (e.g. after an
  /// out-of-band seen-set update). O(1): the version bump invalidates
  /// lazily, unlike a swap (which replaces the cache generation).
  void InvalidateCache();

 private:
  /// White-box access for tests/serve_test.cc (flight registry races are
  /// not reachable deterministically through the public API).
  friend class RecServiceTestPeer;

  /// One in-flight retrieval for a (user, k) key; later misses for the
  /// same key block on it instead of recomputing (see rec_service.cc).
  struct Flight;

  /// JoinOrLead result: the flight registered under the key, plus whether
  /// this thread created it (and so must publish or abandon it).
  struct FlightSlot {
    std::shared_ptr<Flight> flight;
    bool leader = false;
  };

  /// How RetrieveCoalesced answered a request — picks the latency
  /// histogram the request lands in.
  enum class Outcome { kHit, kCoalesced, kLead };

  /// (retriever, cache generation, cache version) as one consistent
  /// triple: a leader Puts into the SAME generation whose version it
  /// captured, so a list computed pre-swap can never surface post-swap
  /// (the retired generation is unreachable from new readers).
  struct ServingSnapshot {
    std::shared_ptr<const Retriever> retriever;
    std::shared_ptr<RecCache> cache;
    uint64_t cache_version = 0;
  };
  ServingSnapshot Snapshot() const;

  /// The cache generation currently serving reads.
  std::shared_ptr<RecCache> CurrentCache() const {
    return std::atomic_load(&cache_);
  }

  /// Whether this request's spans record (see Options::trace_sample_period).
  bool SampleTrace() const;

  /// Resolves the per-request `exact` knob: the pinned exact fallback when
  /// it is a DIFFERENT strategy than the primary (i.e. the knob changes
  /// anything), else nullptr — the single place the fallback rule lives
  /// for both Recommend and RecommendBatch.
  std::shared_ptr<const ExactRetriever> ExactFallbackIfRequested(bool exact);

  /// Replaces the snapshot + invalidates the cache; swap_mu_ must be held.
  /// Retires the outgoing retrievers' counters into retired_retrieval_.
  void InstallLocked(std::shared_ptr<const core::ServingModel> next,
                     std::shared_ptr<const SeenItems> seen);

  /// Joins the in-flight retrieval for `key` if one exists, else registers
  /// a fresh flight with this thread as its leader (who must then publish
  /// or abandon that exact flight).
  FlightSlot JoinOrLead(uint64_t key);

  /// The shared request path: serve (user, k) from the cache, by
  /// coalescing onto another thread's in-flight retrieval, or by leading
  /// one; accounts the cache_hits_/coalesced_ stats for whichever way it
  /// went. Loops back to the cache check when a joined leader unwinds
  /// before publishing, so coalescing survives an abandon (one waiter
  /// re-elects itself leader, the rest join that new flight).
  /// `outcome` (optional) reports which way the request resolved;
  /// `sampled` gates this request's trace spans.
  std::vector<RecEntry> RetrieveCoalesced(int64_t user, int64_t k,
                                          bool sampled,
                                          Outcome* outcome = nullptr);

  /// Publishes the leader's result and wakes the waiters; unregisters
  /// `key`. `flight` must be the one this thread leads under `key`.
  void PublishFlight(uint64_t key, const std::shared_ptr<Flight>& flight,
                     const std::vector<RecEntry>& result);

  /// Unwind path for a leader that dies before publishing: unregisters
  /// `key` and marks `flight` abandoned so waiters unblock and re-run the
  /// miss path. The registry erase is identity-compared — a stale lease
  /// must not tear down a NEW flight another thread registered under the
  /// same key after this one was published (ABA across a publish +
  /// re-lead) — but a not-yet-done flight is always released, covering a
  /// PublishFlight that unwound between its erase and setting done.
  void AbandonFlight(uint64_t key, const std::shared_ptr<Flight>& flight);

  /// Scope guard leading one or more flights: each (key, flight) pair is
  /// abandoned on destruction unless the normal PublishFlight ran first
  /// (which unregisters it, making the abandon an identity-checked no-op).
  class FlightLease {
   public:
    explicit FlightLease(RecService* service) : service_(service) {}
    ~FlightLease() {
      for (const Led& led : led_) service_->AbandonFlight(led.key, led.flight);
    }
    FlightLease(const FlightLease&) = delete;
    FlightLease& operator=(const FlightLease&) = delete;
    /// Call with the lead count upper bound BEFORE JoinOrLead registers
    /// anything: with capacity in hand Add cannot throw, so a freshly
    /// registered flight can never miss its lease entry (which would
    /// leave it in the registry forever, hanging all future joiners).
    void Reserve(size_t n) { led_.reserve(n); }
    void Add(uint64_t key, std::shared_ptr<Flight> flight) {
      led_.push_back({key, std::move(flight)});
    }

   private:
    struct Led {
      uint64_t key;
      std::shared_ptr<Flight> flight;
    };
    RecService* service_;
    std::vector<Led> led_;
  };

  static uint64_t FlightKey(int64_t user, int64_t k) {
    // Same packing as RecCache: user in the high 32 bits, k below. The
    // 32-bit ranges are enforced at the public entry points (see
    // CheckKeyRanges in rec_service.cc), so distinct (user, k) pairs
    // never share a key.
    return (static_cast<uint64_t>(user) << 32) ^ static_cast<uint64_t>(k);
  }

  Options options_;
  /// Guards retriever_/exact_ replacement (readers copy the shared_ptr).
  mutable std::mutex swap_mu_;
  /// The strategy serving the cached path (== exact_ on a kExact service).
  std::shared_ptr<const Retriever> retriever_;
  /// Exact fallback over the same snapshot.
  std::shared_ptr<const ExactRetriever> exact_;
  /// Counters of retrievers already swapped out; guarded by swap_mu_.
  RetrieverStats retired_retrieval_;
  /// Counters of cache generations already swapped out (entries always 0 —
  /// a retired generation's lists are freed); guarded by swap_mu_.
  CacheStats retired_cache_;
  /// The live cache generation. Replaced wholesale on every swap (stale
  /// lists are reclaimed eagerly instead of lingering until LRU pushes
  /// them out); all access goes through std::atomic_load/atomic_store so
  /// readers never touch swap_mu_. In-flight leaders pin their generation
  /// via ServingSnapshot.
  std::shared_ptr<RecCache> cache_;
  /// Catalogue size of the current snapshot (k is clamped against it
  /// before cache lookups, off the lock).
  std::atomic<int64_t> num_items_{0};
  std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> exact_fallbacks_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> latency_ns_{0};
  /// Backing storage when Options::metrics is null (see Options).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// Per-phase end-to-end latency histograms (nanoseconds), resolved once
  /// at construction; Record is lock-free so they sit on the hot path.
  obs::Histogram* lat_hit_ = nullptr;
  obs::Histogram* lat_coalesced_ = nullptr;
  obs::Histogram* lat_miss_ = nullptr;
  obs::Histogram* lat_exact_ = nullptr;
  obs::Histogram* lat_batch_ = nullptr;
  /// Guards flights_; held only for map lookups/insert/erase, never across
  /// a retrieval.
  std::mutex flights_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> flights_;
};

}  // namespace serve
}  // namespace gnmr

#endif  // GNMR_SERVE_REC_SERVICE_H_
