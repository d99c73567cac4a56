#include "src/serve/rec_service.h"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "src/obs/trace.h"
#include "src/serve/hnsw_retriever.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace gnmr {
namespace serve {

// Single-flight state for one (user, k) retrieval. Waiters copy `result`
// under `mu` once `done` flips; the leader is the thread that created the
// entry in flights_. A waiter may receive a result computed on the
// snapshot that was current when the LEADER started — the same staleness
// window any request that began before a hot swap already has.
struct RecService::Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  /// Set when the leader unwound before publishing: `result` is a
  /// meaningless placeholder and waiters must retrieve for themselves.
  bool abandoned = false;
  std::vector<RecEntry> result;
};

namespace {

// RecCache and the flight registry pack (user, k) into one 64-bit key
// with user in the high 32 bits; ids outside that range would silently
// collide and coalesce DIFFERENT users onto one flight (serving one
// user's list to another), so reject them loudly at the entry points.
void CheckKeyRanges(int64_t user, int64_t k) {
  GNMR_CHECK_GE(user, 0);
  GNMR_CHECK_LT(user, int64_t{1} << 32)
      << "user id does not fit the 32-bit (user, k) key packing";
  GNMR_CHECK_LT(k, int64_t{1} << 32)
      << "k does not fit the 32-bit (user, k) key packing";
}

void AddInto(RetrieverStats* into, const RetrieverStats& s) {
  into->requests += s.requests;
  into->scanned_items += s.scanned_items;
  into->scanned_bytes += s.scanned_bytes;
  into->hops += s.hops;
}

}  // namespace

RecService::RecService(std::shared_ptr<const core::ServingModel> model,
                       std::shared_ptr<const SeenItems> seen,
                       Options options)
    : options_(options),
      cache_(std::make_shared<RecCache>(options.cache_capacity_per_shard,
                                        options.cache_shards)) {
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& reg = metrics();
  lat_hit_ = &reg.HistogramOf("serve.latency.hit");
  lat_coalesced_ = &reg.HistogramOf("serve.latency.coalesced");
  lat_miss_ = &reg.HistogramOf("serve.latency.miss");
  lat_exact_ = &reg.HistogramOf("serve.latency.exact");
  lat_batch_ = &reg.HistogramOf("serve.latency.batch");
  // Same construction path a hot swap takes, minus the version bump: the
  // service has never served anything yet, so this is version 0.
  exact_ = std::make_shared<const ExactRetriever>(model, seen);
  retriever_ = MakePrimary(std::move(model), std::move(seen));
  num_items_.store(retriever_->model().num_items, std::memory_order_relaxed);
}

RecService::RecService(std::shared_ptr<const core::ServingModel> model,
                       std::shared_ptr<const SeenItems> seen)
    : RecService(std::move(model), std::move(seen), Options()) {}

RecService::ServingSnapshot RecService::Snapshot() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  // swap_mu_ orders this against InstallLocked, so the retriever and the
  // cache generation are the same swap's pair; the version is read from
  // that generation so the triple is self-consistent.
  std::shared_ptr<RecCache> cache = std::atomic_load(&cache_);
  const uint64_t version = cache->version();
  return {retriever_, std::move(cache), version};
}

bool RecService::SampleTrace() const {
  if (!obs::TraceEnabled()) return false;
  if (options_.trace_sample_period <= 1) return true;
  thread_local uint64_t counter = 0;
  return (counter++ % static_cast<uint64_t>(options_.trace_sample_period)) ==
         0;
}

void RecService::InvalidateCache() { CurrentCache()->Invalidate(); }

std::shared_ptr<const Retriever> RecService::MakePrimary(
    std::shared_ptr<const core::ServingModel> model,
    std::shared_ptr<const SeenItems> seen) const {
  if (options_.retriever != RetrieverKind::kHnsw) return exact_;
  GNMR_CHECK(model->has_hnsw())
      << "RetrieverKind::kHnsw needs a model with an HNSW graph "
         "(core::BuildHnswIndex)";
  return std::make_shared<const HnswRetriever>(
      std::move(model), std::move(seen), options_.ef_search);
}

std::shared_ptr<const ExactRetriever> RecService::ExactFallbackIfRequested(
    bool exact) {
  if (!exact) return nullptr;
  std::lock_guard<std::mutex> lock(swap_mu_);
  // Identity compare: on an exact-backed service the knob changes nothing
  // and the normal (cached, coalesced) path serves the request.
  return exact_.get() != retriever_.get() ? exact_ : nullptr;
}

RecService::FlightSlot RecService::JoinOrLead(uint64_t key) {
  std::lock_guard<std::mutex> lock(flights_mu_);
  std::shared_ptr<Flight>& slot = flights_[key];
  if (slot != nullptr) return {slot, /*leader=*/false};  // join: wait
  slot = std::make_shared<Flight>();
  return {slot, /*leader=*/true};  // lead: compute and publish
}

void RecService::PublishFlight(uint64_t key,
                               const std::shared_ptr<Flight>& flight,
                               const std::vector<RecEntry>& result) {
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    GNMR_CHECK(it != flights_.end() && it->second == flight)
        << "publishing a flight this thread does not lead";
    // Unregister before waking waiters: a request arriving after this
    // point starts fresh (and will usually hit the cache anyway).
    flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->result = result;
    flight->done = true;
  }
  flight->cv.notify_all();
}

void RecService::AbandonFlight(uint64_t key,
                               const std::shared_ptr<Flight>& flight) {
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    // Identity compare, not just key: once this flight was published and
    // erased, `key` may map to a NEW live flight led by another thread —
    // tearing that one down would feed its waiters a bogus empty result
    // and make its leader's PublishFlight abort. Only the erase is gated,
    // though: the wake-up below must still run for a flight PublishFlight
    // erased but failed to mark done (e.g. the result copy threw).
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    if (flight->done) return;  // published: stale lease, nothing to wake
    flight->abandoned = true;
    flight->done = true;  // result stays the empty placeholder
  }
  flight->cv.notify_all();
}

std::vector<RecEntry> RecService::RetrieveCoalesced(int64_t user, int64_t k,
                                                    bool sampled,
                                                    Outcome* outcome) {
  const uint64_t key = FlightKey(user, k);
  std::vector<RecEntry> out;
  for (;;) {
    // Re-checked every round: a racing leader (including another waiter
    // promoted after an abandon) publishes to the cache before waking
    // anyone, so a hit here is always fresher than re-scanning.
    {
      obs::TraceSpan probe("serve.cache_probe", sampled);
      if (CurrentCache()->Get(user, k, &out)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (outcome != nullptr) *outcome = Outcome::kHit;
        return out;
      }
    }
    // Leader unwind protection (e.g. allocation failure mid-retrieval):
    // the lease abandons the flight so waiters don't hang on a dead key.
    // Constructed + reserved before JoinOrLead so the flight is under
    // lease cover from the instant it becomes visible in the registry.
    FlightLease lease(this);
    lease.Reserve(1);
    FlightSlot slot = JoinOrLead(key);
    if (slot.leader) {
      obs::TraceSpan lead("serve.flight_lead", sampled);
      lease.Add(key, slot.flight);
      // Snapshot pins the model AND the cache generation: a concurrent
      // swap cannot free the model from under this retrieval, and the Put
      // goes into the generation whose version was captured — if a swap
      // lands mid-retrieval, the list is parked in the retired (now
      // unreachable) generation instead of surfacing post-swap.
      ServingSnapshot snap = Snapshot();
      {
        obs::TraceSpan retrieve("serve.retrieve", sampled);
        out = snap.retriever->RetrieveTopN(user, k);
      }
      obs::TraceSpan publish("serve.publish", sampled);
      snap.cache->Put(user, k, snap.cache_version, out);
      PublishFlight(key, slot.flight, out);
      if (outcome != nullptr) *outcome = Outcome::kLead;
      return out;
    }
    // Another thread is already retrieving this exact list; wait for its
    // result instead of burning a full catalogue scan on the same key.
    obs::TraceSpan join("serve.flight_join", sampled);
    std::unique_lock<std::mutex> lock(slot.flight->mu);
    slot.flight->cv.wait(lock, [&slot] { return slot.flight->done; });
    if (!slot.flight->abandoned) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = Outcome::kCoalesced;
      return slot.flight->result;
    }
    // The leader unwound before publishing; its empty placeholder is not
    // a real recommendation list — go around again (cache, join, or lead).
  }
}

std::vector<RecEntry> RecService::Recommend(int64_t user, int64_t k,
                                            bool exact) {
  const bool sampled = SampleTrace();
  obs::TraceSpan span("serve.recommend", sampled);
  util::Stopwatch timer;
  // Clamp before the cache lookup: the cache packs k into the low 32 key
  // bits, and unclamped k would also cache the same full-catalogue list
  // under many keys.
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, num_items_.load(std::memory_order_relaxed));
  CheckKeyRanges(user, k);
  requests_.fetch_add(1, std::memory_order_relaxed);
  // The exact knob bypasses cache AND flights: cached lists are shaped by
  // the primary strategy, and mixing exact results into them would make a
  // (user, k) entry depend on which caller populated it.
  std::shared_ptr<const ExactRetriever> fallback =
      ExactFallbackIfRequested(exact);
  std::vector<RecEntry> out;
  Outcome outcome = Outcome::kLead;
  obs::Histogram* histogram = nullptr;
  if (fallback != nullptr) {
    exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    out = fallback->RetrieveTopN(user, k);
    histogram = lat_exact_;
  } else {
    out = RetrieveCoalesced(user, k, sampled, &outcome);
    histogram = outcome == Outcome::kHit         ? lat_hit_
                : outcome == Outcome::kCoalesced ? lat_coalesced_
                                                 : lat_miss_;
  }
  // One clock reading feeds both the cumulative total and the per-phase
  // histogram, so the reported mean and quantiles agree exactly.
  const uint64_t elapsed_ns = timer.ElapsedNanos();
  latency_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  histogram->Record(elapsed_ns);
  return out;
}

std::vector<std::vector<RecEntry>> RecService::RecommendBatch(
    const std::vector<int64_t>& users, int64_t k, bool exact) {
  const bool sampled = SampleTrace();
  obs::TraceSpan span("serve.recommend_batch", sampled);
  util::Stopwatch timer;
  GNMR_CHECK_GE(k, 1);
  k = std::min(k, num_items_.load(std::memory_order_relaxed));
  for (int64_t user : users) CheckKeyRanges(user, k);
  const int64_t n = static_cast<int64_t>(users.size());
  requests_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  std::shared_ptr<const ExactRetriever> fallback =
      ExactFallbackIfRequested(exact);
  if (fallback != nullptr) {
    // Forced-exact batch: straight through the fallback scan, no cache
    // interaction (see Recommend).
    exact_fallbacks_.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
    std::vector<std::vector<RecEntry>> out = fallback->RetrieveBatch(users, k);
    const uint64_t elapsed_ns = timer.ElapsedNanos();
    latency_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
    lat_exact_->Record(elapsed_ns);
    return out;
  }
  std::vector<std::vector<RecEntry>> out(static_cast<size_t>(n));
  std::vector<int64_t> miss_users;
  std::vector<int64_t> miss_slots;
  {
    obs::TraceSpan probe("serve.cache_probe", sampled);
    std::shared_ptr<RecCache> cache = CurrentCache();
    for (int64_t i = 0; i < n; ++i) {
      if (cache->Get(users[static_cast<size_t>(i)], k,
                     &out[static_cast<size_t>(i)])) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        miss_users.push_back(users[static_cast<size_t>(i)]);
        miss_slots.push_back(i);
      }
    }
  }
  if (!miss_users.empty()) {
    // Split the misses into leads (this batch computes them) and joins
    // (another thread is already computing them). A duplicated user within
    // this batch leads once and joins its own flight — safe, because every
    // lead publishes before any join waits.
    std::vector<int64_t> lead_users;
    std::vector<int64_t> lead_slots;
    std::vector<std::shared_ptr<Flight>> lead_flights;
    struct Join {
      int64_t slot;
      int64_t user;
      std::shared_ptr<Flight> flight;
    };
    std::vector<Join> joins;
    FlightLease lease(this);
    // Reserved for every miss up front so Add below cannot throw between
    // JoinOrLead registering a flight and the lease covering it.
    lease.Reserve(miss_users.size());
    for (size_t m = 0; m < miss_users.size(); ++m) {
      uint64_t key = FlightKey(miss_users[m], k);
      FlightSlot fs = JoinOrLead(key);
      if (!fs.leader) {
        joins.push_back({miss_slots[m], miss_users[m], std::move(fs.flight)});
      } else {
        lease.Add(key, fs.flight);
        lead_users.push_back(miss_users[m]);
        lead_slots.push_back(miss_slots[m]);
        lead_flights.push_back(std::move(fs.flight));
      }
    }
    if (!lead_users.empty()) {
      ServingSnapshot snap = Snapshot();
      std::vector<std::vector<RecEntry>> fetched;
      {
        obs::TraceSpan retrieve("serve.retrieve", sampled);
        fetched = snap.retriever->RetrieveBatch(lead_users, k);
      }
      obs::TraceSpan publish("serve.publish", sampled);
      for (size_t m = 0; m < lead_users.size(); ++m) {
        snap.cache->Put(lead_users[m], k, snap.cache_version, fetched[m]);
        PublishFlight(FlightKey(lead_users[m], k), lead_flights[m],
                      fetched[m]);
        out[static_cast<size_t>(lead_slots[m])] = std::move(fetched[m]);
      }
    }
    for (Join& join : joins) {
      obs::TraceSpan wait_span("serve.flight_join", sampled);
      std::unique_lock<std::mutex> lock(join.flight->mu);
      join.flight->cv.wait(lock,
                           [&join] { return join.flight->done; });
      if (join.flight->abandoned) {
        // Leader unwound before publishing: run this user back through
        // the coalescing miss path rather than returning its empty
        // placeholder as a real list.
        lock.unlock();
        out[static_cast<size_t>(join.slot)] =
            RetrieveCoalesced(join.user, k, sampled);
      } else {
        out[static_cast<size_t>(join.slot)] = join.flight->result;
        coalesced_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // The batch is one timed unit (matching the single requests_ += n /
  // latency += elapsed accounting): the histogram sees one end-to-end
  // batch latency, not n synthetic per-user shares.
  const uint64_t elapsed_ns = timer.ElapsedNanos();
  latency_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  lat_batch_->Record(elapsed_ns);
  return out;
}

void RecService::InstallLocked(
    std::shared_ptr<const core::ServingModel> next,
    std::shared_ptr<const SeenItems> seen) {
  GNMR_TRACE_SPAN("serve.install");
  // Caller holds swap_mu_. Retriever construction is O(1) for exact and
  // O(1) shape checks for HNSW (the O(num_items) graph validation runs
  // where the graph is produced — BuildHnswIndex / LoadServingModel — not
  // here), so holding the lock across it is cheap; readers copying the
  // shared_ptr keep serving the old snapshot until the assignments below.
  AddInto(&retired_retrieval_, retriever_->Stats());
  if (exact_.get() != retriever_.get()) {
    AddInto(&retired_retrieval_, exact_->Stats());
  }
  num_items_.store(next->num_items, std::memory_order_relaxed);
  exact_ = std::make_shared<const ExactRetriever>(next, seen);
  retriever_ = MakePrimary(std::move(next), std::move(seen));
  // Replace the cache generation instead of version-bumping it: the
  // outgoing generation's counters are retired (mirroring
  // retired_retrieval_) and its stale lists are freed as soon as the last
  // in-flight leader drops its pin, rather than lingering until LRU churn
  // pushes them out. `entries` is deliberately not carried over — a
  // retired generation holds no servable entries. The new generation is
  // published BEFORE the outgoing counters are read, so only a probe
  // already holding the outgoing pointer (at most one per reader) can land
  // after the harvest.
  std::shared_ptr<RecCache> outgoing = std::atomic_exchange(
      &cache_, std::make_shared<RecCache>(options_.cache_capacity_per_shard,
                                          options_.cache_shards));
  if (after_publish_hook_) after_publish_hook_();
  const CacheStats retired = outgoing->stats();
  retired_cache_.hits += retired.hits;
  retired_cache_.misses += retired.misses;
  retired_cache_.evictions += retired.evictions;
  version_.fetch_add(1, std::memory_order_acq_rel);
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

void RecService::SwapModel(std::shared_ptr<const core::ServingModel> next,
                           std::shared_ptr<const SeenItems> seen) {
  GNMR_CHECK(next != nullptr);
  std::lock_guard<std::mutex> lock(swap_mu_);
  if (seen == nullptr) seen = retriever_->seen_ptr();
  InstallLocked(std::move(next), std::move(seen));
}

util::Status RecService::LoadAndSwap(const std::string& path) {
  GNMR_TRACE_SPAN("serve.load_and_swap");
  // Load v+1 while v keeps serving; nothing above the lock blocks readers,
  // and validation + install happen in one critical section so no
  // concurrent swap can slip a shape change between them.
  util::Result<core::ServingModel> loaded =
      options_.mmap_artifacts ? core::LoadServingModelMapped(path)
                              : core::LoadServingModel(path);
  if (!loaded.ok()) return loaded.status();
  core::ServingModel next = std::move(loaded).value();
  if (options_.retriever == RetrieverKind::kHnsw && !next.has_hnsw()) {
    // Graph-less artifact on an HNSW service: build the graph here
    // (offline work, off the swap lock) so the swap below installs a
    // complete snapshot.
    GNMR_TRACE_SPAN("serve.build_hnsw");
    util::Status built = core::BuildHnswIndex(
        &next, options_.hnsw_m, /*ef_construction=*/0);
    if (!built.ok()) return built;
  }
  auto model = std::make_shared<const core::ServingModel>(std::move(next));
  std::lock_guard<std::mutex> lock(swap_mu_);
  const core::ServingModel& current = retriever_->model();
  if (model->num_users != current.num_users ||
      model->num_items != current.num_items) {
    return util::Status::FailedPrecondition(
        "snapshot shape mismatch: serving " +
        std::to_string(current.num_users) + "x" +
        std::to_string(current.num_items) + " users x items, loaded " +
        std::to_string(model->num_users) + "x" +
        std::to_string(model->num_items));
  }
  InstallLocked(std::move(model), retriever_->seen_ptr());
  return util::Status::OK();
}

std::shared_ptr<const Retriever> RecService::retriever() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return retriever_;
}

std::shared_ptr<const ExactRetriever> RecService::exact_retriever() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return exact_;
}

ServiceStats RecService::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.exact_fallbacks =
      exact_fallbacks_.load(std::memory_order_relaxed);
  out.swaps = swaps_.load(std::memory_order_relaxed);
  out.latency_ns_total = latency_ns_.load(std::memory_order_relaxed);
  out.model_version = model_version();
  std::lock_guard<std::mutex> lock(swap_mu_);
  // Retired generations first (their entries are 0 by construction), then
  // the live generation on top — same shape as the retrieval aggregation.
  out.cache = retired_cache_;
  const CacheStats live = std::atomic_load(&cache_)->stats();
  out.cache.hits += live.hits;
  out.cache.misses += live.misses;
  out.cache.evictions += live.evictions;
  out.cache.entries = live.entries;
  out.retrieval = retired_retrieval_;
  AddInto(&out.retrieval, retriever_->Stats());
  if (exact_.get() != retriever_.get()) {
    AddInto(&out.retrieval, exact_->Stats());
  }
  return out;
}

}  // namespace serve
}  // namespace gnmr
