// Serving measurement (open-loop traffic, hot swaps, rate ladder, output
// checks, traced replay) and the two serving workloads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/eval/evaluator.h"
#include "src/eval/retrieval_recall.h"
#include "src/recorder.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/hnsw_retriever.h"
#include "src/serve/retriever.h"
#include "src/tensor/backend.h"
#include "src/util/rng.h"
#include "src/workloads.h"

namespace perfbench {

using gnmr::core::ServingModel;
using gnmr::serve::RecEntry;
using gnmr::serve::RecService;

namespace {

constexpr int64_t kTopK = 10;
/// Sender threads of the untraced open loop. With the main thread (which
/// fires the swaps) the process stays within 4 threads.
constexpr int kSenders = 2;
/// Every kSampleEvery-th response is kept and compared bitwise against a
/// fresh retriever on the generation that served it.
constexpr size_t kSampleEvery = 97;
/// Lead time between building a schedule and its first due time.
constexpr int64_t kLeadNs = 2000000;
/// A hot swap starts every kSwapPeriodS at the named rate; requests due
/// from a swap's start until kSwapWindowS after it installs are the
/// swap_p99_us population.
constexpr double kSwapPeriodS = 1.0;
constexpr double kSwapWindowS = 0.4;
/// A ladder rung swaps once, serves kStepUpLeadS at the named rate (the
/// herd after the swap drains there), then steps up to its own rate for
/// kStepUpS with no further swap.
constexpr double kStepUpLeadS = 0.5;
constexpr double kStepUpS = 1.0;
/// Rungs of the up-down staircase that follows the bisection.
constexpr int kStaircaseRungs = 9;
/// Users in the recall10 sample.
constexpr int64_t kRecallUsers = 256;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

/// k entries, strictly in serving order (score desc, ties by item id),
/// none of them seen by `user`.
bool ListOk(const std::vector<RecEntry>& list, int64_t user,
            const gnmr::serve::SeenItems* seen) {
  if (static_cast<int64_t>(list.size()) != kTopK) return false;
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0 && !gnmr::serve::BetterThan(list[i - 1], list[i])) return false;
    if (seen != nullptr && seen->Contains(user, list[i].item)) return false;
  }
  return true;
}

/// Request users: Zipf(1.1) by user id (P(u) ~ 1/(u+1)^1.1, the
/// distribution of serve::ZipfRequestStream, drawn by binary search over
/// the CDF so long streams stay cheap to generate) or uniform.
std::vector<int64_t> MakeStream(const TrafficSpec& spec, int64_t num_users,
                                int64_t count, uint64_t seed) {
  gnmr::util::Rng rng(seed, 7);
  std::vector<int64_t> users(static_cast<size_t>(count));
  if (!spec.zipf) {
    for (int64_t& u : users) u = rng.UniformInt(0, num_users - 1);
    return users;
  }
  std::vector<double> cdf(static_cast<size_t>(num_users));
  double total = 0.0;
  for (int64_t u = 0; u < num_users; ++u) {
    total += 1.0 / std::pow(static_cast<double>(u + 1), 1.1);
    cdf[static_cast<size_t>(u)] = total;
  }
  for (int64_t& u : users) {
    const double r = rng.UniformDouble() * total;
    u = std::min<int64_t>(
        num_users - 1,
        std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
  }
  return users;
}

/// A response kept for the bitwise check.
struct Sample {
  int64_t user = 0;
  uint64_t version = 0;
  std::vector<RecEntry> list;
};

/// One open-loop phase: request i is due at due_ns[i] (from phase start)
/// whatever happened to earlier requests; its latency runs from that due
/// time to completion, so a stall is charged to every request it delays.
struct LoadRun {
  std::vector<int64_t> due_ns;
  std::vector<int64_t> start_ns;
  std::vector<int64_t> done_ns;
  /// How late a sender that was waiting for a due time woke up (us).
  std::vector<double> gen_lag_us;
  /// Swap start and install times (ns from phase start) and the
  /// generation each installed version serves.
  std::vector<int64_t> swap_starts;
  std::vector<int64_t> installs;
  std::vector<std::pair<uint64_t, int>> version_gen;
  std::vector<Sample> samples;
  int64_t bad_lists = 0;
  int64_t failed_swaps = 0;
  double seconds = 0.0;

  double LatencyUs(size_t i) const {
    return static_cast<double>(done_ns[i] - due_ns[i]) / 1e3;
  }
  /// Median start lateness of the last tenth of the requests. A backlog
  /// that grew over the phase shows here; one stall of the host delays
  /// too few requests to move it.
  double EndBacklogUs() const {
    std::vector<double> late;
    for (size_t i = due_ns.size() - due_ns.size() / 10; i < due_ns.size();
         ++i) {
      late.push_back(static_cast<double>(start_ns[i] - due_ns[i]) / 1e3);
    }
    return Median(std::move(late));
  }
};

/// Swap schedule of a phase: with a deployment, the calling thread
/// hot-swaps to the other generation at the start of every period.
struct SwapPlan {
  const Deployment* deployment = nullptr;
  double period_s = 1.0;
};

/// The first `count` requests of a phase, paced at their own rate.
struct LeadIn {
  size_t count = 0;
  double qps = 1.0;
};

/// Runs `users` from kSenders threads: the lead-in's requests at its rate,
/// the rest at `qps` after them. With plan.deployment set, the calling
/// thread swaps generations at t = 0, period, 2*period, ... (starting from
/// `*gen`, updated on return).
LoadRun RunOpenLoop(RecService* service, const std::vector<int64_t>& users,
                    double qps, const SwapPlan& plan, int* gen,
                    const LeadIn& lead = {}) {
  const size_t n = users.size();
  LoadRun run;
  run.due_ns.resize(n);
  run.start_ns.resize(n);
  run.done_ns.resize(n);
  const double lead_ns = static_cast<double>(lead.count) * 1e9 / lead.qps;
  for (size_t i = 0; i < n; ++i) {
    run.due_ns[i] = std::llround(
        i < lead.count ? static_cast<double>(i) * 1e9 / lead.qps
                       : lead_ns + static_cast<double>(i - lead.count) *
                                       1e9 / qps);
  }
  const gnmr::serve::SeenItems* seen = service->retriever()->seen();
  std::atomic<size_t> next{0};
  std::mutex merge_mu;
  const int64_t t0 = NowNs() + kLeadNs;
  auto sender = [&] {
    std::vector<double> lag;
    std::vector<Sample> samples;
    int64_t bad = 0;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const int64_t due = t0 + run.due_ns[i];
      int64_t now = NowNs();
      if (now < due) {
        while ((now = NowNs()) < due) CpuRelax();
        lag.push_back(static_cast<double>(now - due) / 1e3);
      }
      run.start_ns[i] = now - t0;
      const uint64_t v0 = service->model_version();
      std::vector<RecEntry> list = service->Recommend(users[i], kTopK);
      run.done_ns[i] = NowNs() - t0;
      const uint64_t v1 = service->model_version();
      if (!ListOk(list, users[i], seen)) ++bad;
      if (i % kSampleEvery == 0 && v0 == v1) {
        samples.push_back({users[i], v0, std::move(list)});
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    run.gen_lag_us.insert(run.gen_lag_us.end(), lag.begin(), lag.end());
    for (Sample& s : samples) run.samples.push_back(std::move(s));
    run.bad_lists += bad;
  };
  run.version_gen.push_back({service->model_version(), *gen});
  std::vector<std::thread> threads;
  for (int t = 0; t < kSenders; ++t) threads.emplace_back(sender);
  if (plan.deployment != nullptr) {
    const int64_t period = static_cast<int64_t>(plan.period_s * 1e9);
    const int64_t last_due = n == 0 ? 0 : run.due_ns.back();
    for (int64_t at = 0; at <= last_due; at += period) {
      SleepUntilNs(t0 + at);
      const int next_gen = *gen ^ 1;
      const int64_t swap_start = NowNs() - t0;
      Span span("serve.swap");
      if (!service->LoadAndSwap(plan.deployment->path[next_gen]).ok()) {
        ++run.failed_swaps;
        continue;
      }
      *gen = next_gen;
      run.swap_starts.push_back(swap_start);
      run.installs.push_back(NowNs() - t0);
      run.version_gen.push_back({service->model_version(), *gen});
    }
  }
  for (std::thread& t : threads) t.join();
  run.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return run;
}

/// Latencies of a run split by swap period (period j holds the requests
/// due in [j*period, (j+1)*period)), from period `first` on. The requests
/// due from the start of the period's swap (the artifact load) until
/// `window_s` after it installed are its swap window; the rest are steady.
struct PeriodQuantiles {
  /// Every steady latency, pooled over the periods.
  std::vector<double> steady;
  /// Per period: p99 of its swap window.
  std::vector<double> window_p99;
  size_t window_samples = 0;
};

PeriodQuantiles PerPeriod(const LoadRun& run, double period_s,
                          double window_s, size_t first) {
  const int64_t period = static_cast<int64_t>(period_s * 1e9);
  const int64_t window = static_cast<int64_t>(window_s * 1e9);
  const size_t periods = run.installs.size();
  std::vector<std::vector<double>> steady(periods), in_window(periods);
  for (size_t i = 0; i < run.due_ns.size(); ++i) {
    const size_t j = static_cast<size_t>(run.due_ns[i] / period);
    if (j < first || j >= periods) continue;
    const double us = run.LatencyUs(i);
    const bool swapping = run.due_ns[i] >= run.swap_starts[j] &&
                          run.due_ns[i] < run.installs[j] + window;
    (swapping ? in_window : steady)[j].push_back(us);
  }
  PeriodQuantiles q;
  for (size_t j = first; j < periods; ++j) {
    q.steady.insert(q.steady.end(), steady[j].begin(), steady[j].end());
    q.window_p99.push_back(Quantile(in_window[j], 0.99));
    q.window_samples += in_window[j].size();
  }
  return q;
}

/// Generation served under `version`, from the run's install log (the
/// version before the first install maps to the starting generation).
int GenerationOf(const LoadRun& run, uint64_t version) {
  int gen = run.version_gen.front().second;
  for (const auto& [v, g] : run.version_gen) {
    if (v <= version) gen = g;
  }
  return gen;
}

std::unique_ptr<gnmr::serve::Retriever> FreshRetriever(
    const Deployment& deployment, int gen) {
  if (deployment.hnsw) {
    return std::make_unique<gnmr::serve::HnswRetriever>(
        deployment.model[gen], deployment.seen);
  }
  return std::make_unique<gnmr::serve::ExactRetriever>(
      deployment.model[gen], deployment.seen,
      gnmr::serve::ItemShardMode::kOff);
}

/// Output checks of one load phase: list shape/order/seen on every
/// response, bitwise equality on the sampled ones, swaps that loaded.
void CheckRun(const LoadRun& run, const Deployment& deployment,
              const char* phase, Report* report) {
  report->CountWork(static_cast<int64_t>(run.due_ns.size()), run.bad_lists);
  report->Check(run.bad_lists == 0,
                std::string(phase) + ": " + std::to_string(run.bad_lists) +
                    " served lists not k long, out of order, or seen");
  report->Check(run.failed_swaps == 0,
                std::string(phase) + ": LoadAndSwap failed");
  std::unique_ptr<gnmr::serve::Retriever> fresh[2] = {
      FreshRetriever(deployment, 0), FreshRetriever(deployment, 1)};
  int64_t mismatches = 0;
  for (const Sample& s : run.samples) {
    const int gen = GenerationOf(run, s.version);
    if (fresh[gen]->RetrieveTopN(s.user, kTopK) != s.list) ++mismatches;
  }
  report->Check(mismatches == 0,
                std::string(phase) + ": " + std::to_string(mismatches) +
                    " sampled responses differ from a fresh retriever");
}

int64_t NumUsers(const RecService& service) {
  return service.retriever()->model().num_users;
}

}  // namespace

std::vector<double> Ladder(double base, double step, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(std::round(base * std::pow(step, i)));
  }
  return out;
}

bool SameEmbeddings(const ServingModel& a, const ServingModel& b) {
  return a.num_users == b.num_users && a.num_items == b.num_items &&
         a.embeddings.shape() == b.embeddings.shape() &&
         std::memcmp(a.embeddings.data(), b.embeddings.data(),
                     static_cast<size_t>(a.embeddings.numel()) *
                         sizeof(float)) == 0;
}

void MeasureServing(const TrafficSpec& spec, const Deployment& deployment,
                    RecService* service, const RunOptions& options,
                    Report* report, const std::function<void()>& after_block) {
  const int64_t num_users = NumUsers(*service);
  int gen = 0;

  // recall10 against a fresh exact scan of the live generation.
  {
    gnmr::util::Rng rng(options.seed ^ 0x5eedULL, 11);
    std::vector<int64_t> sample(static_cast<size_t>(kRecallUsers));
    for (int64_t& u : sample) u = rng.UniformInt(0, num_users - 1);
    gnmr::serve::ExactRetriever exact(deployment.model[0], deployment.seen,
                                      gnmr::serve::ItemShardMode::kOff);
    const double recall = gnmr::eval::RetrievalRecallAtK(
        exact, *service->retriever(), sample, kTopK);
    report->Add("recall10", recall, "ratio");
    if (deployment.hnsw) {
      report->Check(recall >= 0.95, "HNSW recall@10 below the 0.95 gate");
    } else {
      report->Check(recall == 1.0, "exact tier recall@10 is not 1.0");
    }
  }

  // Warm-up at the named rate (unmeasured).
  Progress("recall10 checked; warming up");
  LoadRun warm_run = RunOpenLoop(
      service, MakeStream(spec, num_users, static_cast<int64_t>(spec.named_qps),
                          options.seed * 1000 + 1),
      spec.named_qps, SwapPlan{}, &gen);
  CheckRun(warm_run, deployment, "warm-up", report);

  // The measured phase: --seconds swap periods at the named rate, each
  // starting with a hot swap, run as one block each, spread over the run
  // (between ladder rungs). Each block opens with one unmeasured lead-in
  // period, so every measured swap follows a full period at the named
  // rate: the first swap after a rung releases a generation the rung's
  // faster traffic touched far more of, and on the mmap tier stalls the
  // senders 4-7 ms against ~1 ms for a swap at the named rate.
  // p99 is the exact quantile of one block's raw steady samples, reported
  // for the least contended block: the host's other tenants only ever add
  // latency, and a slow stretch of the host lasts seconds, so one block in
  // a quiet stretch sets the figure. swap_p99 is likewise the exact p99 of
  // one swap window's raw samples, reported for the least contended of
  // the measured swaps.
  constexpr int kRungsPerBlock = 2;
  const int64_t blocks = std::max<int64_t>(
      3, std::llround(options.seconds / kSwapPeriodS));
  std::vector<double> block_p50, block_p99, swap_p99;
  int64_t installs = 0;
  int block = 0;
  auto named_block = [&] {
    constexpr int64_t block_periods = 2;  // lead-in + measured
    const std::vector<int64_t> stream = MakeStream(
        spec, num_users,
        std::llround(spec.named_qps * kSwapPeriodS *
                     static_cast<double>(block_periods)),
        options.seed * 1000 + 2 + static_cast<uint64_t>(block));
    LoadRun run = RunOpenLoop(service, stream, spec.named_qps,
                              SwapPlan{&deployment, kSwapPeriodS}, &gen);
    CheckRun(run, deployment, "named rate", report);
    const PeriodQuantiles q =
        PerPeriod(run, kSwapPeriodS, kSwapWindowS, /*first=*/1);
    block_p50.push_back(Quantile(q.steady, 0.5));
    block_p99.push_back(Quantile(q.steady, 0.99));
    swap_p99.insert(swap_p99.end(), q.window_p99.begin(), q.window_p99.end());
    Progress("named rate %.0f/s, block %d: %zu requests in %.3f s, %zu swaps "
             "(1 lead-in; %zu steady, %zu post-swap samples): p50 %.2f us, "
             "p99 %.1f us, swap p99 %.1f us (median); gen lag p99 %.2f us; "
             "end backlog %.1f us",
             spec.named_qps, block, stream.size(), run.seconds,
             run.installs.size(), q.steady.size(), q.window_samples,
             block_p50.back(), block_p99.back(), Median(q.window_p99),
             Quantile(run.gen_lag_us, 0.99), run.EndBacklogUs());
    report->Check(run.EndBacklogUs() <= spec.p99_limit_us,
                  "backlog grew at the named rate");
    installs += static_cast<int64_t>(run.installs.size()) - 1;
    ++block;
    if (after_block) after_block();
  };
  named_block();

  // max_qps. A rung passes when the p99 of its requests at its own rate
  // meets the limit and its backlog does not grow. First a bisection over
  // the fixed ladder: lo/hi start at virtual rungs -1 (pass) and
  // ladder.size() (fail). Near capacity a rung's outcome turns on stalls
  // from the host's other tenants (a descheduled sender leaves a backlog
  // that the misses then compound), so one rate passes or fails by chance
  // over a band of rates 20-30% wide. So a staircase of kStaircaseRungs
  // rungs follows, from the first failing rung: one rung up after a pass,
  // one down after a fail. It settles where a rung passes half the time,
  // and max_qps is the rate of the median rung it tried.
  const int64_t top = static_cast<int64_t>(spec.ladder.size()) - 1;
  int rung_index = 0;
  auto rung_passes = [&](int64_t index) {
    const double rate = spec.ladder[static_cast<size_t>(index)];
    const uint64_t stream_seed =
        options.seed * 1000 + 100 + static_cast<uint64_t>(rung_index++);
    // One swap at t = 0 (its period outlasts the rung).
    const LeadIn lead{static_cast<size_t>(spec.named_qps * kStepUpLeadS),
                      spec.named_qps};
    const std::vector<int64_t> rung = MakeStream(
        spec, num_users,
        static_cast<int64_t>(lead.count) +
            static_cast<int64_t>(rate * kStepUpS),
        stream_seed);
    LoadRun rung_run = RunOpenLoop(
        service, rung, rate,
        SwapPlan{&deployment, 2 * (kStepUpLeadS + kStepUpS)}, &gen, lead);
    std::vector<double> stepped;
    for (size_t i = lead.count; i < rung.size(); ++i) {
      stepped.push_back(rung_run.LatencyUs(i));
    }
    const double p99 = Quantile(std::move(stepped), 0.99);
    CheckRun(rung_run, deployment, "ladder rung", report);
    const bool pass = p99 <= spec.p99_limit_us &&
                      rung_run.EndBacklogUs() <= spec.p99_limit_us;
    Progress("ladder rung %lld: %.0f/s p99 %.1f us, end backlog %.1f us "
             "-> %s",
             static_cast<long long>(index), rate, p99,
             rung_run.EndBacklogUs(), pass ? "pass" : "fail");
    // Named blocks are spread between the rungs.
    if (rung_index % kRungsPerBlock == 0 && block < blocks) named_block();
    return pass;
  };
  int64_t lo = -1;
  int64_t hi = top + 1;
  while (hi - lo > 1) {
    const int64_t mid = (lo + hi) / 2;
    (rung_passes(mid) ? lo : hi) = mid;
  }
  std::vector<double> tried;
  for (int64_t t = 0, at = std::min(hi, top); t < kStaircaseRungs; ++t) {
    tried.push_back(static_cast<double>(at));
    at = std::clamp<int64_t>(at + (rung_passes(at) ? 1 : -1), 0, top);
  }
  const int64_t result = static_cast<int64_t>(Quantile(tried, 0.5));
  if (lo < 0 || lo == top) {
    Progress("warning: bisection ended at the %s end of the ladder",
             lo < 0 ? "bottom" : "top");
  }
  while (block < blocks) named_block();
  report->Check(installs >= 3, "fewer than 3 swaps installed");
  // A cache hit's ~1-2 us moves 0.4-2.2 us between seconds of one run on a
  // shared host, so p50_us (a hit on the zipf and roll-out traffic) is
  // printed but is not a result metric; see README.md.
  report->Note("p50_us", Fastest(block_p50), "us");
  report->Add("p99_us", Fastest(block_p99), "us");
  report->Add("swap_p99_us", Fastest(swap_p99), "us");
  report->Add("max_qps", spec.ladder[static_cast<size_t>(result)], "1/s");
}

void TraceServing(const TrafficSpec& spec, const Deployment& deployment,
                  RecService* service, const RunOptions& options,
                  bool report_overhead, Report* report) {
  const int64_t num_users = NumUsers(*service);
  int gen = 0;

  // Retrieval tiers called directly, one request at a time.
  {
    gnmr::util::Rng rng(options.seed ^ 0x5eedULL, 13);
    gnmr::serve::ExactRetriever exact(deployment.model[0], deployment.seen,
                                      gnmr::serve::ItemShardMode::kOff);
    const int64_t exact_calls = 1000;
    for (int64_t c = 0; c < exact_calls; ++c) {
      const int64_t u = rng.UniformInt(0, num_users - 1);
      Span span("retrieve.exact");
      exact.RetrieveTopN(u, kTopK);
    }
    std::vector<double> us = SpanDurationsNs("retrieve.exact");
    for (double& v : us) v /= 1e3;
    report->Add("retrieve.exact_us.p50", Quantile(us, 0.5), "us");
    report->Add("retrieve.exact_us.p99", Quantile(us, 0.99), "us");

    std::unique_ptr<gnmr::serve::Retriever> tier = FreshRetriever(deployment, 0);
    const int64_t tier_calls = deployment.hnsw ? 20000 : exact_calls;
    for (int64_t c = 0; c < tier_calls; ++c) {
      const int64_t u = rng.UniformInt(0, num_users - 1);
      Span span(deployment.hnsw ? "retrieve.hnsw" : "retrieve.tier_exact");
      tier->RetrieveTopN(u, kTopK);
    }
    const gnmr::serve::RetrieverStats st = tier->Stats();
    const double reqs = static_cast<double>(std::max<uint64_t>(st.requests, 1));
    if (deployment.hnsw) {
      std::vector<double> h = SpanDurationsNs("retrieve.hnsw");
      for (double& v : h) v /= 1e3;
      report->Add("retrieve.hnsw_us.p50", Quantile(h, 0.5), "us");
      report->Add("retrieve.hnsw_us.p99", Quantile(h, 0.99), "us");
    }
    report->Add("retrieve.hops_per_req", static_cast<double>(st.hops) / reqs,
                "count");
    report->Add("retrieve.items_per_req",
                static_cast<double>(st.scanned_items) / reqs, "count");
  }

  // Single-sender replay at half the named rate (one sender instead of
  // two), every call spanned and tagged hit or miss from the service's
  // counters, with the same swap cadence.
  {
    const double qps = spec.named_qps / 2.0;
    std::vector<int64_t> stream = MakeStream(
        spec, num_users, static_cast<int64_t>(qps * options.seconds),
        options.seed * 1000 + 2);
    const gnmr::serve::ServiceStats before = service->stats();
    std::vector<double> hit_us, miss_us;
    std::vector<int64_t> due(stream.size()), swap_starts, installs;
    std::vector<bool> was_miss(stream.size());
    std::atomic<bool> done{false};
    const int64_t t0 = NowNs() + kLeadNs;
    const int64_t period = static_cast<int64_t>(kSwapPeriodS * 1e9);
    const int64_t window = static_cast<int64_t>(kSwapWindowS * 1e9);
    std::thread swapper([&] {
      const int64_t end = static_cast<int64_t>(options.seconds * 1e9);
      for (int64_t at = 0; at < end; at += period) {
        SleepUntilNs(t0 + at);
        if (done.load()) break;
        const int next_gen = gen ^ 1;
        const int64_t swap_start = NowNs() - t0;
        Span span("serve.swap");
        if (service->LoadAndSwap(deployment.path[next_gen]).ok()) {
          gen = next_gen;
          swap_starts.push_back(swap_start);
          installs.push_back(NowNs() - t0);
        }
      }
    });
    uint64_t hits = before.cache_hits;
    for (size_t i = 0; i < stream.size(); ++i) {
      due[i] = static_cast<int64_t>(std::llround(static_cast<double>(i) * 1e9 / qps));
      while (NowNs() < t0 + due[i]) CpuRelax();
      int64_t ns = 0;
      {
        Span span("serve.recommend");
        service->Recommend(stream[i], kTopK);
        ns = span.ElapsedNs();
      }
      const uint64_t now_hits = service->stats().cache_hits;
      was_miss[i] = now_hits == hits;
      hits = now_hits;
      (was_miss[i] ? miss_us : hit_us).push_back(static_cast<double>(ns) / 1e3);
    }
    done.store(true);
    swapper.join();
    const gnmr::serve::ServiceStats after = service->stats();
    int64_t window_reqs = 0, window_misses = 0;
    size_t w = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      while (w < installs.size() && installs[w] + window <= due[i]) ++w;
      if (w < installs.size() && swap_starts[w] <= due[i]) {
        ++window_reqs;
        window_misses += was_miss[i] ? 1 : 0;
      }
    }
    const double reqs = static_cast<double>(after.requests - before.requests);
    report->Add("cache.hit_ratio",
                static_cast<double>(after.cache_hits - before.cache_hits) / reqs,
                "ratio");
    report->Add("cache.evictions_per_kreq",
                1e3 * static_cast<double>(after.cache.evictions -
                                          before.cache.evictions) / reqs,
                "count");
    report->Add("serve.hit_us.p50", Quantile(hit_us, 0.5), "us");
    report->Add("serve.miss_us.p50", Quantile(miss_us, 0.5), "us");
    report->Add("serve.miss_us.p99", Quantile(miss_us, 0.99), "us");
    report->Add("serve.post_swap_miss_ratio",
                window_reqs == 0 ? 0.0
                                 : static_cast<double>(window_misses) / window_reqs,
                "ratio");
    std::vector<double> swap_ms = SpanDurationsNs("serve.swap");
    for (double& v : swap_ms) v /= 1e6;
    report->Add("serve.swap_ms", Quantile(swap_ms, 0.5), "ms");
  }

  // Two-sender phase at the named rate: concurrent misses can coalesce,
  // and the generator's lateness is the validity check of the schedule.
  {
    std::vector<int64_t> stream = MakeStream(
        spec, num_users,
        static_cast<int64_t>(spec.named_qps * options.seconds / 2.0),
        options.seed * 1000 + 3);
    const gnmr::serve::ServiceStats before = service->stats();
    LoadRun run = RunOpenLoop(service, stream, spec.named_qps,
                              SwapPlan{&deployment, kSwapPeriodS}, &gen);
    const gnmr::serve::ServiceStats after = service->stats();
    CheckRun(run, deployment, "traced named rate", report);
    report->Add("serve.coalesced_ratio",
                static_cast<double>(after.coalesced - before.coalesced) /
                    static_cast<double>(after.requests - before.requests),
                "ratio");
    report->Add("gen.lag_us.p99", Quantile(run.gen_lag_us, 0.99), "us");
  }

  // Tracing overhead: the same request segment from an invalidated cache,
  // recorder off then on, three rounds; median of the per-round change.
  if (report_overhead) {
    std::vector<int64_t> segment =
        MakeStream(spec, num_users, 1000, options.seed * 1000 + 4);
    std::vector<double> pcts;
    const bool was_recording = Recording();
    for (int round = 0; round < 3; ++round) {
      double ns[2] = {0.0, 0.0};
      for (int on = 0; on < 2; ++on) {
        SetRecording(on == 1);
        service->InvalidateCache();
        const int64_t t = NowNs();
        for (int64_t u : segment) {
          Span span("serve.recommend_replay");
          service->Recommend(u, kTopK);
        }
        ns[on] = static_cast<double>(NowNs() - t);
      }
      pcts.push_back(100.0 * (ns[1] - ns[0]) / ns[0]);
    }
    SetRecording(was_recording);
    report->Add("trace.overhead_pct", Median(pcts), "%");
  }
}

// ---------------------------------------------------------------------------
// Serving workloads: synthetic clustered multi-order embeddings.
// ---------------------------------------------------------------------------

namespace {

/// Row width of the served embeddings: (L+1)*d under the concat readout
/// with the paper's L=2, d=16.
constexpr int64_t kWidth = 48;
constexpr int64_t kClusters = 64;
constexpr int64_t kSeenPerUser = 5;
constexpr int64_t kEvalUsers = 1000;
constexpr int64_t kEvalNegatives = 99;
constexpr int kSetupReps = 3;
/// Offline passes before the traffic and after it; one more runs after
/// each named block.
constexpr int kOfflinePassesAtEnds = 2;

struct ServeWorld {
  ServingModel gen[2];
  std::shared_ptr<const gnmr::serve::SeenItems> seen;
  std::vector<gnmr::data::EvalCandidates> candidates;
};

int64_t ClusterOfItem(int64_t item, int64_t num_items) {
  return item * kClusters / num_items;
}

/// Users and items around shared cluster centres; generation 1 redraws
/// every user row (a retrained user side) and keeps the item rows, so an
/// item index built for generation 0 serves generation 1 too. Each user
/// has seen kSeenPerUser items of their own cluster; the eval candidates
/// pair one unseen same-cluster item with 99 unseen random items.
ServeWorld MakeWorld(int64_t users, int64_t items, uint64_t seed) {
  gnmr::util::Rng rng(seed, 3);
  gnmr::tensor::Tensor centers = gnmr::tensor::Tensor::RandomNormal(
      {kClusters, kWidth}, &rng, 0.0f, 4.0f);
  ServeWorld world;
  for (int g = 0; g < 2; ++g) {
    ServingModel& m = world.gen[g];
    m.num_users = users;
    m.num_items = items;
    if (g == 1) {
      m.embeddings = world.gen[0].embeddings.Clone();
    } else {
      m.embeddings = gnmr::tensor::Tensor({users + items, kWidth});
    }
    float* data = m.embeddings.data();
    const int64_t rows = g == 0 ? users + items : users;
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t c =
          r < users ? r % kClusters : ClusterOfItem(r - users, items);
      const float* center = centers.data() + c * kWidth;
      for (int64_t j = 0; j < kWidth; ++j) {
        data[r * kWidth + j] = center[j] + rng.Normal(0.0f, 0.5f);
      }
    }
  }
  const int64_t per_cluster = items / kClusters;
  auto cluster_item = [&](int64_t user) {
    const int64_t c = user % kClusters;
    const int64_t first = (c * items + kClusters - 1) / kClusters;
    return std::min(items - 1, first + rng.UniformInt(0, per_cluster - 1));
  };
  gnmr::data::Dataset seen_events;
  seen_events.num_users = users;
  seen_events.num_items = items;
  seen_events.behavior_names = {"purchase"};
  seen_events.interactions.reserve(static_cast<size_t>(users * kSeenPerUser));
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t s = 0; s < kSeenPerUser; ++s) {
      seen_events.interactions.push_back({u, cluster_item(u), 0, 0});
    }
  }
  world.seen = std::make_shared<const gnmr::serve::SeenItems>(
      gnmr::serve::SeenItems::FromDataset(seen_events));
  for (int64_t e = 0; e < kEvalUsers; ++e) {
    gnmr::data::EvalCandidates cand;
    cand.user = rng.UniformInt(0, users - 1);
    do {
      cand.positive_item = cluster_item(cand.user);
    } while (world.seen->Contains(cand.user, cand.positive_item));
    while (static_cast<int64_t>(cand.negatives.size()) < kEvalNegatives) {
      const int64_t j = rng.UniformInt(0, items - 1);
      if (j == cand.positive_item || world.seen->Contains(cand.user, j) ||
          std::find(cand.negatives.begin(), cand.negatives.end(), j) !=
              cand.negatives.end()) {
        continue;
      }
      cand.negatives.push_back(j);
    }
    world.candidates.push_back(std::move(cand));
  }
  return world;
}

struct ServeWorkload {
  int64_t users;
  int64_t items;
  bool hnsw;
  /// Users per offline RetrieveBatch pass (sized to ~0.3 s on one core).
  int64_t offline_users;
  TrafficSpec traffic;
};

void RunServe(const ServeWorkload& w, const RunOptions& options,
              Report* report) {
  Progress("backend: %s", gnmr::tensor::GetBackend().name());
  ServeWorld world = MakeWorld(w.users, w.items, options.seed);
  Progress("inputs: %lld users x %lld items, width %lld", 
           static_cast<long long>(w.users), static_cast<long long>(w.items),
           static_cast<long long>(kWidth));
  Deployment deployment;
  deployment.hnsw = w.hnsw;
  deployment.seen = world.seen;
  deployment.path[0] = options.work_dir + "/gen0.gnmr";
  deployment.path[1] = options.work_dir + "/gen1.gnmr";

  RecService::Options service_options;
  if (w.hnsw) {
    service_options.retriever = gnmr::serve::RetrieverKind::kHnsw;
    service_options.mmap_artifacts = true;
  }

  // Set-up: index build (HNSW), SaveServingModelV3, first load, service
  // construction. The first set-up's service is the one measured; two
  // more at the end of the run (to their own artifact) are timed too, and
  // setup_s is the median of the three.
  std::vector<double> setup_s;
  ServingModel& model = world.gen[0];
  auto set_up = [&](const std::string& path) -> std::unique_ptr<RecService> {
    const int64_t t = NowNs();
    if (w.hnsw) {
      Span span("index.hnsw_build");
      const gnmr::util::Status s = gnmr::core::BuildHnswIndex(&model, 0, 0);
      report->Check(s.ok(), "BuildHnswIndex: " + s.ToString());
    }
    {
      Span span("io.save");
      const gnmr::util::Status s = gnmr::core::SaveServingModelV3(model, path);
      report->Check(s.ok(), "SaveServingModelV3: " + s.ToString());
    }
    gnmr::util::Result<ServingModel> loaded = [&] {
      Span span("io.load");
      return w.hnsw ? gnmr::core::LoadServingModelMapped(path)
                    : gnmr::core::LoadServingModel(path);
    }();
    if (!loaded.ok()) {
      report->Check(false, "load: " + loaded.status().ToString());
      return nullptr;
    }
    auto service = std::make_unique<RecService>(
        std::make_shared<const ServingModel>(std::move(loaded).value()),
        world.seen, service_options);
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
    return service;
  };
  std::unique_ptr<RecService> service = set_up(deployment.path[0]);
  if (service == nullptr) return;

  // Generation 1 shares generation 0's item rows, hence its graph.
  world.gen[1].hnsw = model.hnsw;
  {
    Span span("io.save");
    const gnmr::util::Status s =
        gnmr::core::SaveServingModelV3(world.gen[1], deployment.path[1]);
    report->Check(s.ok(), "SaveServingModelV3: " + s.ToString());
  }
  for (int g = 0; g < 2; ++g) {
    gnmr::util::Result<ServingModel> back =
        gnmr::core::LoadServingModel(deployment.path[g]);
    report->Check(back.ok() && SameEmbeddings(back.value(), world.gen[g]),
                  "artifact does not round-trip bitwise");
    if (!back.ok()) return;
    deployment.model[g] =
        std::make_shared<const ServingModel>(std::move(back).value());
  }

  if (options.trace) {
    std::vector<double> save = SpanDurationsNs("io.save");
    std::vector<double> load = SpanDurationsNs("io.load");
    for (double& v : save) v /= 1e6;
    for (double& v : load) v /= 1e6;
    report->Add("io.save_ms", Median(save), "ms");
    report->Add("io.load_ms", Median(load), "ms");
    if (w.hnsw) {
      std::vector<double> b = SpanDurationsNs("index.hnsw_build");
      report->Add("index.hnsw_build_s", Median(b) / 1e9, "s");
    }
    TraceServing(w.traffic, deployment, service.get(), options,
                 /*report_overhead=*/true, report);
    return;
  }

  // Offline batch: a fixed user sample through the served tier in one
  // RetrieveBatch call (the serving analogue of the training pass), run
  // before, between and after the traffic phases; train_s is the fastest
  // pass.
  gnmr::util::Rng offline_rng(options.seed ^ 0x0ff1eULL, 17);
  std::vector<int64_t> offline_users(static_cast<size_t>(w.offline_users));
  for (int64_t& u : offline_users) u = offline_rng.UniformInt(0, w.users - 1);
  std::vector<double> offline_s;
  auto offline_passes = [&](int passes) {
    for (int rep = 0; rep < passes; ++rep) {
      const int64_t t = NowNs();
      std::vector<std::vector<RecEntry>> lists =
          service->retriever()->RetrieveBatch(offline_users, kTopK);
      offline_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
      int64_t bad = 0;
      for (size_t i = 0; i < lists.size(); ++i) {
        if (!ListOk(lists[i], offline_users[i], world.seen.get())) ++bad;
      }
      report->Check(bad == 0, "offline batch lists not k long, out of "
                              "order, or seen");
    }
  };
  offline_passes(kOfflinePassesAtEnds);

  // Ranking quality of the served scores on the generator's held-out
  // positives, 99 negatives each (the paper's protocol).
  {
    std::unique_ptr<gnmr::eval::Scorer> scorer =
        gnmr::core::MakeSharedScorer(deployment.model[0]);
    gnmr::eval::RankingMetrics m =
        gnmr::eval::EvaluateRanking(scorer.get(), world.candidates, {10});
    report->Add("hr10", m.hr.at(10), "ratio");
    report->Add("ndcg10", m.ndcg.at(10), "ratio");
  }

  MeasureServing(w.traffic, deployment, service.get(), options, report,
                 [&] { offline_passes(1); });

  offline_passes(kOfflinePassesAtEnds);
  report->Add("train_s", Fastest(offline_s), "s");
  Progress("offline batch: fastest %.3f s of %zu", Fastest(offline_s),
           offline_s.size());
  service.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    set_up(options.work_dir + "/setup.gnmr");
  }
  report->Add("setup_s", Median(setup_s), "s");
  Progress("set-up: median %.3f s of %zu", Median(setup_s), setup_s.size());
}

}  // namespace

void RunServeZipfSwap(const RunOptions& options, Report* report) {
  ServeWorkload w;
  w.users = 100000;
  w.items = 6000;
  w.hnsw = false;
  w.offline_users = 2000;
  w.traffic.zipf = true;
  w.traffic.named_qps = 8000;
  w.traffic.ladder = Ladder(12000, 1.05, 31);
  w.traffic.p99_limit_us = 5000;
  RunServe(w, options, report);
}

void RunServeUniformHnsw(const RunOptions& options, Report* report) {
  ServeWorkload w;
  w.users = 300000;
  w.items = 16000;
  w.hnsw = true;
  w.offline_users = 8000;
  w.traffic.zipf = false;
  w.traffic.named_qps = 6000;
  w.traffic.ladder = Ladder(16000, 1.05, 31);
  w.traffic.p99_limit_us = 2000;
  RunServe(w, options, report);
}

}  // namespace perfbench
