// Persistent worker pool backing the "sharded" kernel backend.
//
// Plain std::thread. Each worker owns its own task queue (one mutex +
// condvar per worker, no shared run queue). Run() executes task 0 on the
// calling thread and deals the rest round-robin across the queues: when
// the task count equals the worker count — the common case, one ShardPlan
// range per worker — the caller and all but one worker run one task each
// with no cross-worker contention, the same team size as the worker count.
// Dealing starts at a worker fixed per calling thread, so a thread's
// repeated dispatches keep each range on the same worker (and its core's
// cache).
//
// Wake-ups: an idle worker polls its queue for kShardSpinMicros before
// sleeping on its condvar, and the caller polls for completion as long
// before blocking, so back-to-back dispatches (a training step's kernel
// sequence) hand off without futex sleeps.
//
// Work stealing: a worker whose own queue drains scans its siblings and
// steals the BACK of the first non-empty queue it finds (the owner pops
// the front, so thief and owner contend on opposite ends). This absorbs
// duration skew beyond what nnz-balanced planning can see — a shard that
// turns out heavy at runtime no longer serializes the dispatch while its
// siblings idle. Stealing is best-effort (a worker that finds nothing
// sleeps until its own queue is refilled) and preserves exactly-once: a
// task lives in exactly one queue and is popped under that queue's mutex,
// whoever pops it.
//
// Determinism: the pool never reorders or splits a task; whatever
// accumulation order the task body uses is preserved — a stolen task runs
// the same body on the same range, just on a different thread. Combined
// with range kernels that keep the serial per-element order
// (backend_simd.h) this is what keeps the sharded backend bit-identical to
// the serial reference.
//
// Re-entrancy: a task that calls Run() again (e.g. a sharded retriever
// block landing on a pool worker, or on the dispatching thread's own task)
// executes the nested tasks inline on that thread instead of enqueueing —
// queueing to ourselves while the outer Run() holds the completion would
// deadlock.
#ifndef GNMR_TENSOR_SHARD_POOL_H_
#define GNMR_TENSOR_SHARD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gnmr {
namespace tensor {

/// Cumulative pool counters (monotonic since pool construction; snapshot
/// twice and subtract to attribute work to a phase, e.g. one train epoch).
struct ShardPoolStats {
  int64_t workers = 0;
  /// Run() calls that fanned out to the pool (inline runs not counted).
  uint64_t dispatches = 0;
  /// Shard tasks those dispatches executed, on pool workers or on the
  /// dispatching thread.
  uint64_t tasks = 0;
  /// Tasks an idle worker stole from a sibling's queue (a subset of
  /// `tasks`); nonzero means the dispatch was skewed enough for stealing
  /// to pay.
  uint64_t steals = 0;
  /// Per-worker busy time (nanoseconds spent inside task bodies).
  std::vector<uint64_t> worker_busy_ns;
};

/// Fixed-size pool of shard workers with per-worker task queues.
class ShardPool {
 public:
  explicit ShardPool(int64_t workers);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int64_t workers() const { return static_cast<int64_t>(workers_.size()); }

  /// Executes fn(0) .. fn(num_tasks - 1), each exactly once, and returns
  /// when all have finished. fn(0) runs on the calling thread; the rest
  /// deal round-robin from a start worker fixed per calling thread. So a
  /// thread's repeated dispatches send range s to the same worker every
  /// time (its slice stays in that core's cache, as under a static OpenMP
  /// schedule), while dispatches from different threads start at
  /// different workers instead of piling onto worker 0. Safe to call
  /// concurrently from multiple threads; called from a pool worker it
  /// degrades to an inline loop (see header comment). If a task throws,
  /// the remaining tasks still run and the first exception is rethrown
  /// here on the calling thread (never std::terminate on a worker).
  void Run(int64_t num_tasks, const std::function<void(int64_t)>& fn);

  ShardPoolStats stats() const;

  /// The process-wide pool used by the sharded backend and the sharded
  /// retriever. Sized on first use from GNMR_SHARD_WORKERS, else
  /// kShardWorkersDefault, else std::thread::hardware_concurrency().
  /// Returns a snapshot: hold the shared_ptr across use so a concurrent
  /// SetShardWorkers cannot destroy the pool mid-Run (the old pool stays
  /// alive until its last holder releases it).
  static std::shared_ptr<ShardPool> Global();

 private:
  /// Completion latch shared by all tasks of one Run() call (shard_pool.cc).
  struct Completion;

  struct Task {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t index = 0;
    /// Shared so a worker may still touch it after the dispatching thread
    /// has seen the last task finish and returned.
    std::shared_ptr<Completion> completion;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    /// queue.size(), written under `mu`; read lock-free by the idle poll.
    std::atomic<int64_t> queued{0};
    std::thread thread;
    /// This worker's position in workers_ (steal scans start at index+1).
    size_t index = 0;
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> tasks_stolen{0};
    bool stop = false;
  };

  void WorkerLoop(Worker* w);
  /// Runs one task body on `w` with the exception-capture, timing and
  /// completion accounting every task gets, owned or stolen.
  void ExecuteTask(Worker* w, const Task& task);
  /// Pops the front of `w`'s own queue; false when it is empty.
  static bool TryPopOwn(Worker* w, Task* task);
  /// Pops the back of the first non-empty sibling queue (scan starts after
  /// `w`); false when every sibling is drained.
  bool TrySteal(Worker* w, Task* task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> dispatches_{0};
  /// Tasks run by dispatching threads (task 0 of every fan-out).
  std::atomic<uint64_t> caller_tasks_{0};
};

/// Worker count of the global pool.
int64_t ShardWorkers();

/// Stats of the global pool WITHOUT instantiating it: all-zero (workers ==
/// 0) while no kernel has dispatched yet. Lets diagnostics snapshot pool
/// activity for free when sharded execution is idle or unused.
ShardPoolStats GlobalShardPoolStats();

/// Replaces the global pool: `workers` >= 1 sizes it exactly; <= 0
/// re-applies the default sizing (GNMR_SHARD_WORKERS, else
/// kShardWorkersDefault, else one thread per hardware thread). Safe
/// against in-flight sharded kernels: they finish on the pool snapshot
/// they hold, which is torn down once its last holder releases it.
void SetShardWorkers(int64_t workers);

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_SHARD_POOL_H_
