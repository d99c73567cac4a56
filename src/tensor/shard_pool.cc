#include "src/tensor/shard_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "src/obs/trace.h"
#include "src/tensor/kernel_tunables.h"
#include "src/util/check.h"

namespace gnmr {
namespace tensor {

namespace {

/// Set for the lifetime of every pool worker thread, and on a dispatching
/// thread while it runs its own task; Run() uses it to detect re-entrant
/// dispatch and fall back to an inline loop.
thread_local bool t_on_pool_worker = false;

/// Start worker of every dispatch from this thread (see Run()), drawn once
/// per thread from a process-wide counter.
uint64_t ThreadDispatchStart() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t start =
      next.fetch_add(1, std::memory_order_relaxed);
  return start;
}

/// Polls `ready` for up to kShardSpinMicros, yielding between polls so an
/// oversubscribed host's other threads still run; true once it held.
template <typename Pred>
bool PollFor(const Pred& ready) {
  if (ready()) return true;
  if (kShardSpinMicros <= 0) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(kShardSpinMicros);
  do {
    std::this_thread::yield();
    if (ready()) return true;
  } while (std::chrono::steady_clock::now() < deadline);
  return false;
}

int64_t ResolvedDefaultWorkers() {
  if (const char* env = std::getenv("GNMR_SHARD_WORKERS")) {
    if (*env != '\0') {
      int64_t n = std::strtoll(env, nullptr, 10);
      GNMR_CHECK_GT(n, 0) << "GNMR_SHARD_WORKERS must be a positive integer, "
                          << "got '" << env << "'";
      return std::min<int64_t>(n, 1024);
    }
  }
  if (kShardWorkersDefault > 0) return kShardWorkersDefault;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

/// Serializes pool creation and replacement only; readers go through the
/// atomic shared_ptr accessors below.
std::mutex g_pool_mu;
std::shared_ptr<ShardPool>& GlobalSlot() {
  static std::shared_ptr<ShardPool> pool;
  return pool;
}

}  // namespace

/// Completion latch shared by all tasks of one Run() call.
struct ShardPool::Completion {
  std::atomic<int64_t> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  /// First exception a task threw (later ones are dropped); rethrown on
  /// the dispatching thread after every task has finished.
  std::exception_ptr error;

  bool finished() const {
    return remaining.load(std::memory_order_acquire) == 0;
  }

  /// Runs task `index`. A throwing task (e.g. bad_alloc) must not escape
  /// a worker thread — that would std::terminate the process — so the
  /// exception is handed to the dispatching Run() caller, whose own
  /// unwind machinery (such as RecService's FlightLease) is built for
  /// exactly this. Identical for owned, stolen and caller-run tasks.
  void RunBody(const std::function<void(int64_t)>& fn, int64_t index) {
    // One span per task on the thread that ran it (owner, thief or
    // caller), so the trace shows how a dispatch actually spread.
    GNMR_TRACE_SPAN("shard.task");
    try {
      fn(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (error == nullptr) error = std::current_exception();
    }
  }

  /// Counts one task done; the last one wakes a caller blocked in Wait().
  void Finish() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  void Wait() {
    if (PollFor([this] { return finished(); })) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return finished(); });
  }
};

ShardPool::ShardPool(int64_t workers) {
  GNMR_CHECK_GE(workers, 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int64_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = static_cast<size_t>(w);
  }
  // Start threads only after the vector is fully built: from its first
  // loop iteration a worker may scan EVERY sibling's queue to steal
  // (TrySteal walks workers_), so no thread may run while the vector is
  // still growing.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(worker); });
  }
}

ShardPool::~ShardPool() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ShardPool::ExecuteTask(Worker* w, const Task& task) {
  auto start = std::chrono::steady_clock::now();
  task.completion->RunBody(*task.fn, task.index);
  auto elapsed = std::chrono::steady_clock::now() - start;
  w->busy_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  w->tasks_run.fetch_add(1, std::memory_order_relaxed);
  task.completion->Finish();
}

bool ShardPool::TryPopOwn(Worker* w, Task* task) {
  std::lock_guard<std::mutex> lock(w->mu);
  if (w->queue.empty()) return false;
  *task = std::move(w->queue.front());
  w->queue.pop_front();
  w->queued.store(static_cast<int64_t>(w->queue.size()),
                  std::memory_order_relaxed);
  return true;
}

bool ShardPool::TrySteal(Worker* w, Task* task) {
  const size_t nw = workers_.size();
  for (size_t off = 1; off < nw; ++off) {
    Worker* victim = workers_[(w->index + off) % nw].get();
    std::lock_guard<std::mutex> lock(victim->mu);
    if (victim->queue.empty()) continue;
    // Steal the back: the owner pops the front, so under contention thief
    // and owner take opposite ends of the deque.
    *task = std::move(victim->queue.back());
    victim->queue.pop_back();
    victim->queued.store(static_cast<int64_t>(victim->queue.size()),
                         std::memory_order_relaxed);
    w->tasks_stolen.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ShardPool::WorkerLoop(Worker* w) {
  t_on_pool_worker = true;
  for (;;) {
    Task task;
    // Own queue first, then a sibling's backlog. Stealing is best-effort:
    // a task enqueued to a sibling after the scan is the owner's to run
    // (its cv was notified), so nothing is lost by going idle.
    if (TryPopOwn(w, &task) || TrySteal(w, &task)) {
      ExecuteTask(w, task);
      continue;
    }
    // Idle: poll for the next dispatch before paying a futex sleep.
    if (PollFor([w] {
          return w->queued.load(std::memory_order_relaxed) > 0;
        })) {
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait(lock, [w] { return w->stop || !w->queue.empty(); });
      if (w->queue.empty()) return;  // stop requested and drained
    }
  }
}

void ShardPool::Run(int64_t num_tasks,
                    const std::function<void(int64_t)>& fn) {
  if (num_tasks <= 0) return;
  if (t_on_pool_worker || num_tasks == 1 || workers() == 1) {
    // Nested dispatch, nothing to fan out, or a single-worker pool (where
    // a thread handoff buys nothing): run inline. Same results, no
    // self-deadlock.
    for (int64_t t = 0; t < num_tasks; ++t) fn(t);
    return;
  }
  // Covers enqueue through completion-wait: the gap between this span and
  // the shard.task spans it fans out is queueing + wake-up latency.
  GNMR_TRACE_SPAN("shard.dispatch");
  auto completion = std::make_shared<Completion>();
  completion->remaining.store(num_tasks, std::memory_order_relaxed);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  const int64_t nw = workers();
  // A fixed start per calling thread: the same thread's dispatches map
  // ranges to workers identically (cache-warm slices), and concurrent
  // callers with small plans start on different workers.
  const uint64_t base = ThreadDispatchStart();
  for (int64_t t = 1; t < num_tasks; ++t) {
    Worker* w = workers_[static_cast<size_t>(
                             (base + static_cast<uint64_t>(t)) %
                             static_cast<uint64_t>(nw))]
                    .get();
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->queue.push_back(Task{&fn, t, completion});
      w->queued.store(static_cast<int64_t>(w->queue.size()),
                      std::memory_order_relaxed);
    }
    w->cv.notify_one();
  }
  // Task 0 runs here instead of idling until the workers finish. The
  // thread counts as a pool worker meanwhile, so a Run() nested in the
  // task executes inline exactly as it would on a worker.
  t_on_pool_worker = true;
  completion->RunBody(fn, 0);
  t_on_pool_worker = false;
  caller_tasks_.fetch_add(1, std::memory_order_relaxed);
  completion->Finish();
  completion->Wait();
  if (completion->error != nullptr) std::rethrow_exception(completion->error);
}

ShardPoolStats ShardPool::stats() const {
  ShardPoolStats out;
  out.workers = workers();
  out.dispatches = dispatches_.load(std::memory_order_relaxed);
  out.tasks = caller_tasks_.load(std::memory_order_relaxed);
  out.worker_busy_ns.reserve(workers_.size());
  for (const auto& w : workers_) {
    out.tasks += w->tasks_run.load(std::memory_order_relaxed);
    out.steals += w->tasks_stolen.load(std::memory_order_relaxed);
    out.worker_busy_ns.push_back(w->busy_ns.load(std::memory_order_relaxed));
  }
  return out;
}

std::shared_ptr<ShardPool> ShardPool::Global() {
  // Fast path: every sharded kernel dispatch and sharded retrieval
  // snapshots the pool, so reads go through the atomic shared_ptr
  // accessors (in libstdc++ an address-hashed internal spinlock — not
  // truly lock-free, but a copy-only critical section) instead of
  // g_pool_mu, which is reserved for the slow work: creating the pool on
  // first use or swapping it in SetShardWorkers.
  std::shared_ptr<ShardPool> pool = std::atomic_load_explicit(
      &GlobalSlot(), std::memory_order_acquire);
  if (pool != nullptr) return pool;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  pool = std::atomic_load_explicit(&GlobalSlot(), std::memory_order_acquire);
  if (pool == nullptr) {
    pool = std::make_shared<ShardPool>(ResolvedDefaultWorkers());
    std::atomic_store_explicit(&GlobalSlot(), pool,
                               std::memory_order_release);
  }
  return pool;
}

int64_t ShardWorkers() { return ShardPool::Global()->workers(); }

ShardPoolStats GlobalShardPoolStats() {
  std::shared_ptr<ShardPool> pool = std::atomic_load_explicit(
      &GlobalSlot(), std::memory_order_acquire);
  return pool == nullptr ? ShardPoolStats{} : pool->stats();
}

void SetShardWorkers(int64_t workers) {
  if (workers <= 0) workers = ResolvedDefaultWorkers();
  // Build the replacement outside the slot lock (thread spawn is slow),
  // then swap. Threads that snapshotted the old pool via Global() keep a
  // shared_ptr, so in-flight Run() calls finish on it; the pool joins its
  // workers when the last holder lets go — `old` is released outside the
  // lock because that join must not block Global() readers or creators.
  auto next = std::make_shared<ShardPool>(workers);
  std::shared_ptr<ShardPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    old = std::atomic_exchange_explicit(&GlobalSlot(), std::move(next),
                                        std::memory_order_acq_rel);
  }
}

}  // namespace tensor
}  // namespace gnmr
