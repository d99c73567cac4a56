// Tests of the sharded execution layer: zero-copy CsrMatrix row-range
// views, ShardPlan partition invariants (uniform and nnz-balanced), the
// shard pool, bit-identical parity of the "sharded" backend against the
// serial reference at 1/2/7 workers across all eleven kernel entry points
// on both kernel tables, item-sharded ExactRetriever vs brute force
// (including exact ties), and the per-shard timings surfaced through the
// trainer's epoch stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/gnmr_trainer.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/serve/seen_items.h"
#include "src/serve/exact_retriever.h"
#include "src/tensor/backend.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_plan.h"
#include "src/tensor/shard_pool.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace gnmr {
namespace {

/// RAII worker-count switch: sets the global pool size, restores on exit
/// so later tests see the default again. Shared by the tensor- and
/// serve-layer sections below.
class ScopedShardWorkers {
 public:
  explicit ScopedShardWorkers(int64_t workers)
      : previous_(tensor::ShardWorkers()) {
    tensor::SetShardWorkers(workers);
  }
  ~ScopedShardWorkers() { tensor::SetShardWorkers(previous_); }

 private:
  int64_t previous_;
};

}  // namespace

namespace tensor {
namespace {

// Random CSR with ~density*cols entries per row; every third row is forced
// empty so ragged layouts are exercised.
CsrMatrix RandomCsr(int64_t rows, int64_t cols, double density,
                    util::Rng* rng, bool with_empty_rows = true) {
  std::vector<Coo> entries;
  for (int64_t r = 0; r < rows; ++r) {
    if (with_empty_rows && r % 3 == 2) continue;
    for (int64_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) {
        entries.push_back({r, c, rng->Normal()});
      }
    }
  }
  return CsrMatrix::FromCoo(rows, cols, entries);
}

// --------------------------------------------------------------- ShardPlan --

TEST(ShardPlanTest, UniformInvariantsAndClamping) {
  for (int64_t rows : {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{1000}}) {
    for (int64_t shards : {int64_t{1}, int64_t{3}, int64_t{8}}) {
      ShardPlan plan = ShardPlan::Uniform(rows, shards, /*min_rows=*/4);
      plan.CheckInvariants();
      EXPECT_LE(plan.num_shards(), shards);
      EXPECT_LE(plan.num_shards(), std::max<int64_t>(1, rows / 4));
      for (const ShardRange& r : plan.ranges()) {
        if (plan.num_shards() > 1) {
          EXPECT_GE(r.rows(), 4);
        }
      }
    }
  }
  // Zero rows: empty plan, invariants still hold.
  ShardPlan empty = ShardPlan::Uniform(0, 4);
  empty.CheckInvariants();
  EXPECT_EQ(empty.num_shards(), 0);
}

TEST(ShardPlanTest, NnzBalancedInvariantsOnRandomMatrices) {
  util::Rng rng(34);
  for (int64_t rows : {int64_t{10}, int64_t{128}, int64_t{777}}) {
    CsrMatrix m = RandomCsr(rows, 64, 0.2, &rng);
    for (int64_t shards : {int64_t{1}, int64_t{2}, int64_t{7}}) {
      ShardPlan plan = ShardPlan::NnzBalanced(m, shards);
      plan.CheckInvariants();
      EXPECT_EQ(plan.total_rows(), rows);
      // Recorded per-shard nnz matches the matrix.
      int64_t total = 0;
      for (const ShardRange& r : plan.ranges()) {
        int64_t nnz = 0;
        for (int64_t i = r.begin; i < r.end; ++i) nnz += m.RowNnz(i);
        EXPECT_EQ(r.nnz, nnz);
        total += nnz;
      }
      EXPECT_EQ(total, m.nnz());
    }
  }
}

TEST(ShardPlanTest, NnzBalancedBoundsShardWeight) {
  // Bounded-degree rows: every shard stays within one max-degree row of
  // the ideal even split (the greedy cut overshoots by at most one row).
  util::Rng rng(35);
  CsrMatrix m = RandomCsr(500, 100, 0.15, &rng, /*with_empty_rows=*/false);
  int64_t max_row_nnz = 0;
  for (int64_t r = 0; r < m.rows(); ++r) {
    max_row_nnz = std::max(max_row_nnz, m.RowNnz(r));
  }
  for (int64_t shards : {int64_t{2}, int64_t{5}, int64_t{7}}) {
    ShardPlan plan = ShardPlan::NnzBalanced(m, shards);
    ASSERT_EQ(plan.num_shards(), shards);
    int64_t ideal = (m.nnz() + shards - 1) / shards;
    for (const ShardRange& r : plan.ranges()) {
      EXPECT_LE(r.nnz, ideal + max_row_nnz)
          << "shard [" << r.begin << ", " << r.end << ")";
    }
  }
}

TEST(ShardPlanTest, NnzBalancedSurvivesPathologicalSkew) {
  // All mass in one super-heavy row (a power-law hub): the plan must stay
  // a valid partition, with the hub isolated in its own small shard.
  std::vector<Coo> entries;
  for (int64_t c = 0; c < 200; ++c) entries.push_back({100, c, 1.0f});
  for (int64_t r = 0; r < 300; r += 10) entries.push_back({r, 0, 1.0f});
  CsrMatrix m = CsrMatrix::FromCoo(300, 200, entries);
  ShardPlan plan = ShardPlan::NnzBalanced(m, 4);
  plan.CheckInvariants();
  EXPECT_GT(plan.num_shards(), 1);
  // Trailing rows after the hub still get covered (adaptive re-targeting).
  EXPECT_EQ(plan.ranges().back().end, 300);
}

TEST(ShardPlanTest, NnzBalancedRespectsMinRows) {
  util::Rng rng(36);
  CsrMatrix m = RandomCsr(40, 30, 0.3, &rng);
  ShardPlan plan = ShardPlan::NnzBalanced(m, 16, /*min_rows=*/8);
  plan.CheckInvariants();
  EXPECT_LE(plan.num_shards(), 5);  // 40 rows / 8 min
  for (const ShardRange& r : plan.ranges()) EXPECT_GE(r.rows(), 8);
}

// --------------------------------------------------------------- ShardPool --

TEST(ShardPoolTest, RunsEveryTaskExactlyOnce) {
  ScopedShardWorkers workers(3);
  constexpr int64_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  ShardPool::Global()->Run(kTasks,
                          [&](int64_t t) { hits[static_cast<size_t>(t)]++; });
  for (int64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[static_cast<size_t>(t)].load(), 1) << "task " << t;
  }
}

TEST(ShardPoolTest, NestedRunExecutesInline) {
  ScopedShardWorkers workers(2);
  std::atomic<int> inner_runs{0};
  ShardPool::Global()->Run(4, [&](int64_t) {
    // Re-entrant dispatch from a pool worker must not deadlock.
    ShardPool::Global()->Run(3, [&](int64_t) { inner_runs++; });
  });
  EXPECT_EQ(inner_runs.load(), 12);
}

TEST(ShardPoolTest, CallerRunsTaskZeroAndNestsInline) {
  // The dispatching thread runs task 0 itself instead of idling, and a
  // Run() nested in that task executes inline on it, as on a worker.
  ScopedShardWorkers workers(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  std::vector<std::thread::id> nested_on(2);
  ShardPool::Global()->Run(4, [&](int64_t t) {
    ran_on[static_cast<size_t>(t)] = std::this_thread::get_id();
    if (t == 0) {
      ShardPool::Global()->Run(2, [&](int64_t u) {
        nested_on[static_cast<size_t>(u)] = std::this_thread::get_id();
      });
    }
  });
  EXPECT_EQ(ran_on[0], caller);
  for (size_t t = 1; t < ran_on.size(); ++t) {
    EXPECT_NE(ran_on[t], caller) << "task " << t;
  }
  for (const std::thread::id& id : nested_on) EXPECT_EQ(id, caller);
}

TEST(ShardPoolTest, StatsCountDispatchesAndBusyTime) {
  ScopedShardWorkers workers(2);
  ShardPoolStats before = ShardPool::Global()->stats();
  EXPECT_EQ(before.workers, 2);
  std::atomic<int64_t> sink{0};
  ShardPool::Global()->Run(8, [&](int64_t t) { sink += t; });
  ShardPoolStats after = ShardPool::Global()->stats();
  EXPECT_EQ(after.dispatches, before.dispatches + 1);
  EXPECT_EQ(after.tasks, before.tasks + 8);
  ASSERT_EQ(after.worker_busy_ns.size(), 2u);
}

TEST(ShardPoolTest, WorkerCountFollowsSetShardWorkers) {
  ScopedShardWorkers workers(5);
  EXPECT_EQ(ShardWorkers(), 5);
  SetShardWorkers(2);
  EXPECT_EQ(ShardWorkers(), 2);
  // 0 (and any non-positive count) re-applies the default sizing rather
  // than silently degrading to a single worker.
  SetShardWorkers(0);
  EXPECT_GE(ShardWorkers(), 1);
}

TEST(ShardPoolTest, TaskExceptionRethrownOnDispatcher) {
  // A throwing task must not escape a worker thread (std::terminate): the
  // first exception surfaces on the Run() caller — whose unwind machinery
  // is built for it — and the pool stays fully usable afterwards.
  ScopedShardWorkers workers(3);
  std::shared_ptr<ShardPool> pool = ShardPool::Global();
  EXPECT_THROW(pool->Run(8,
                         [](int64_t t) {
                           if (t == 5) throw std::runtime_error("shard boom");
                         }),
               std::runtime_error);
  std::atomic<int> runs{0};
  pool->Run(8, [&](int64_t) { runs++; });
  EXPECT_EQ(runs.load(), 8);
}

TEST(ShardPoolTest, SnapshotSurvivesSetShardWorkers) {
  // A pool reference obtained before a resize must stay usable: callers
  // hold the Global() snapshot across Run, so the swapped-out pool may
  // not be torn down under them.
  ScopedShardWorkers workers(3);
  std::shared_ptr<ShardPool> before = ShardPool::Global();
  SetShardWorkers(2);
  std::atomic<int> runs{0};
  before->Run(8, [&](int64_t) { runs++; });
  EXPECT_EQ(runs.load(), 8);
  EXPECT_EQ(before->workers(), 3);
  EXPECT_EQ(ShardWorkers(), 2);
}

// Busy-spins so skew is CPU time, not sleep (a sleeping worker would free
// the core for its sibling and mask scheduling effects on 1-core hosts).
void SpinFor(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(ShardPoolTest, IdleWorkersStealFromSkewedQueues) {
  // Skewed plan: round-robin dealing alternates tasks between the two
  // workers, but every even-dealt task runs ~2ms while odd ones are nearly
  // free. The light worker drains its queue in well under one heavy task
  // and must then steal from its backlogged sibling — without stealing it
  // would idle for the rest of the dispatch and report (almost) no busy
  // time past its own 16 cheap tasks.
  ScopedShardWorkers workers(2);
  std::shared_ptr<ShardPool> pool = ShardPool::Global();
  constexpr int64_t kTasks = 32;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  pool->Run(kTasks, [&](int64_t t) {
    hits[static_cast<size_t>(t)]++;
    SpinFor(std::chrono::microseconds(t % 2 == 0 ? 2000 : 20));
  });
  // Exactly-once survives stealing: a task lives in exactly one queue and
  // is popped under that queue's mutex, whoever pops it.
  for (int64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[static_cast<size_t>(t)].load(), 1) << "task " << t;
  }
  ShardPoolStats stats = pool->stats();
  EXPECT_EQ(stats.tasks, static_cast<uint64_t>(kTasks));
  EXPECT_GT(stats.steals, 0u) << "idle worker never stole from the backlog";
  ASSERT_EQ(stats.worker_busy_ns.size(), 2u);
  for (size_t w = 0; w < stats.worker_busy_ns.size(); ++w) {
    EXPECT_GT(stats.worker_busy_ns[w], 0u) << "worker " << w << " idle";
  }
}

TEST(ShardPoolTest, StolenTaskExceptionStillRethrown) {
  // Same skewed shape, with a throwing task buried deep in the backlogged
  // queue — by the time it runs, the light worker is stealing from that
  // queue, so the throw frequently happens on the thief. Either way the
  // exception must surface on the dispatching caller and the pool must
  // stay usable.
  ScopedShardWorkers workers(2);
  std::shared_ptr<ShardPool> pool = ShardPool::Global();
  EXPECT_THROW(
      pool->Run(32,
                [&](int64_t t) {
                  if (t == 30) throw std::runtime_error("stolen boom");
                  SpinFor(std::chrono::microseconds(t % 2 == 0 ? 1000 : 20));
                }),
      std::runtime_error);
  std::atomic<int> runs{0};
  pool->Run(8, [&](int64_t) { runs++; });
  EXPECT_EQ(runs.load(), 8);
}

// ------------------------------------------- sharded backend parity 1/2/7 --

void ExpectBitIdentical(const Tensor& ref, const Tensor& got,
                        const std::string& context) {
  ASSERT_EQ(ref.shape(), got.shape()) << context;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(ref.data()[i], got.data()[i])
        << context << " at flat index " << i;
  }
}

// Every kernel input is sized past its fan-out threshold so the sharded
// paths actually dispatch (at 1 worker the plans collapse to one inline
// range — that degenerate path must stay bit-identical too). Shapes are
// ragged against the AVX2 tiles (6-row MatMul tiles, 16/32-column tiles,
// 8-wide lanes). Runs all eleven ops on both kernel tables — the
// registered instance (AVX2 kernels on hosts that have them) and the
// serial-kernel instance — and, for the registered one, with the AVX-512
// MatMul tiles on and off.
TEST(ShardedBackendParityTest, AllOpsBitIdenticalToSerialAt127Workers) {
  const KernelBackend* serial = FindBackend("serial");
  ASSERT_NE(FindBackend("sharded"), nullptr);
  util::Rng rng(37);

  // MatMul: 128*32*50 = 205k multiply-adds >= kParallelMatMulMinWork.
  const int64_t mm_n = 128, mm_k = 32, mm_m = 50;
  Tensor mm_a = Tensor::RandomNormal({mm_n, mm_k}, &rng);
  Tensor mm_b = Tensor::RandomNormal({mm_k, mm_m}, &rng);
  // SpMM: ~4.8k nnz * 24 cols >= kParallelSpmmMinWork; ragged with empty
  // rows so nnz-balanced shard cuts land mid-matrix.
  CsrMatrix sp = RandomCsr(400, 120, 0.15, &rng);
  Tensor sp_x = Tensor::RandomNormal({120, 24}, &rng);
  // Gather/ScatterAdd/RowDot: 2500 rows * 24 >= kParallelRowsMinWork.
  Tensor table = Tensor::RandomNormal({90, 24}, &rng);
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < 2500; ++i) {
    // Zipf-ish duplicates: low rows collide massively.
    idx.push_back(rng.UniformInt(0, rng.UniformInt(0, 89)));
  }
  const int64_t count = static_cast<int64_t>(idx.size());
  Tensor src = Tensor::RandomNormal({count, 24}, &rng);
  Tensor rd_a = Tensor::RandomNormal({2500, 24}, &rng);
  Tensor rd_b = Tensor::RandomNormal({2500, 24}, &rng);
  // Eltwise / ReduceSum: 40000 elements >= kParallelEltwiseMinWork, ~10
  // kReduceSumChunk chunks with a ragged tail. One test-local body (runs
  // as given) and one element_ops.h body (translated to its AVX2 twin).
  Tensor ew = Tensor::RandomNormal({40000 + 123}, &rng);
  Tensor ew2 = Tensor::RandomNormal({40000 + 123}, &rng);
  KernelBackend::MapFn relu = [](const float* in, float* out, int64_t len,
                                 float) {
    for (int64_t i = 0; i < len; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  };
  KernelBackend::ZipFn mul = [](const float* x, const float* y, float* out,
                                int64_t len, float) {
    for (int64_t i = 0; i < len; ++i) out[i] = x[i] * y[i];
  };
  const KernelBackend::MapFn leaky = &MapLoop<&elops::LeakyReluEl>;
  const KernelBackend::ZipFn sig_bwd = &ZipLoop<&elops::SigmoidBwdEl>;
  // Serving scans: 301 rows of width 37 (ragged against the 8-lane vector
  // loop); the indexed scan revisits rows out of order.
  const int64_t qn = 301, qm = 37;
  Tensor q = Tensor::RandomNormal({qm}, &rng);
  Tensor q_rows = Tensor::RandomNormal({qn, qm}, &rng);
  std::vector<int64_t> q_idx;
  for (int64_t i = 0; i < qn; ++i) q_idx.push_back(rng.UniformInt(0, qn - 1));

  // Serial references, computed once.
  Tensor mm_ref({mm_n, mm_m});
  serial->MatMul(mm_a.data(), mm_b.data(), mm_ref.data(), mm_n, mm_k, mm_m);
  Tensor sp_ref({sp.rows(), 24});
  serial->Spmm(sp, sp_x.data(), sp_ref.data(), 24);
  Tensor ga_ref({count, 24});
  serial->GatherRows(table.data(), 24, idx.data(), count, ga_ref.data());
  Tensor sc_ref({90, 24});
  serial->ScatterAddRows(sc_ref.data(), 90, 24, idx.data(), count,
                         src.data());
  Tensor rd_ref({2500, 1});
  serial->RowDot(rd_a.data(), rd_b.data(), rd_ref.data(), 2500, 24);
  Tensor map_ref(ew.shape()), zip_ref(ew.shape());
  Tensor leaky_ref(ew.shape()), sig_ref(ew.shape());
  serial->EltwiseMap(ew.data(), map_ref.data(), ew.numel(), relu, 0.0f);
  serial->EltwiseZip(ew.data(), ew2.data(), zip_ref.data(), ew.numel(), mul,
                     0.0f);
  serial->EltwiseMap(ew.data(), leaky_ref.data(), ew.numel(), leaky, 0.1f);
  serial->EltwiseZip(ew.data(), ew2.data(), sig_ref.data(), ew.numel(),
                     sig_bwd, 0.0f);
  double sum_ref = serial->ReduceSum(ew.data(), ew.numel());
  std::vector<float> qd_ref(qn), qdi_ref(qn);
  serial->QueryDot(q.data(), q_rows.data(), qd_ref.data(), qn, qm);
  serial->QueryDotIndexed(q.data(), q_rows.data(), q_idx.data(),
                          qdi_ref.data(), qn, qm);

  const struct {
    const KernelBackend* backend;
    bool avx512_tiles;
    const char* tag;
  } variants[] = {
      {FindBackend("sharded"), true, "sharded"},
      {FindBackend("sharded"), false, "sharded/avx2-tiles"},
      {ShardedSerialKernelsForTest(), true, "sharded/serial-kernels"},
  };
  for (const auto& v : variants) {
    simd::SetSimdAvx512TilesEnabledForTest(v.avx512_tiles);
    const KernelBackend* sharded = v.backend;
    for (int64_t workers : {int64_t{1}, int64_t{2}, int64_t{7}}) {
      ScopedShardWorkers scoped(workers);
      std::string ctx =
          std::string(v.tag) + "@" + std::to_string(workers) + " workers ";

      Tensor mm_got({mm_n, mm_m});
      sharded->MatMul(mm_a.data(), mm_b.data(), mm_got.data(), mm_n, mm_k,
                      mm_m);
      ExpectBitIdentical(mm_ref, mm_got, ctx + "matmul");

      Tensor sp_got({sp.rows(), 24});
      sharded->Spmm(sp, sp_x.data(), sp_got.data(), 24);
      ExpectBitIdentical(sp_ref, sp_got, ctx + "spmm");

      Tensor ga_got({count, 24});
      sharded->GatherRows(table.data(), 24, idx.data(), count, ga_got.data());
      ExpectBitIdentical(ga_ref, ga_got, ctx + "gather");

      Tensor sc_got({90, 24});
      sharded->ScatterAddRows(sc_got.data(), 90, 24, idx.data(), count,
                              src.data());
      ExpectBitIdentical(sc_ref, sc_got, ctx + "scatter-add");

      Tensor rd_got({2500, 1});
      sharded->RowDot(rd_a.data(), rd_b.data(), rd_got.data(), 2500, 24);
      ExpectBitIdentical(rd_ref, rd_got, ctx + "rowdot");

      Tensor map_got(ew.shape()), zip_got(ew.shape());
      Tensor leaky_got(ew.shape()), sig_got(ew.shape());
      sharded->EltwiseMap(ew.data(), map_got.data(), ew.numel(), relu, 0.0f);
      sharded->EltwiseZip(ew.data(), ew2.data(), zip_got.data(), ew.numel(),
                          mul, 0.0f);
      sharded->EltwiseMap(ew.data(), leaky_got.data(), ew.numel(), leaky,
                          0.1f);
      sharded->EltwiseZip(ew.data(), ew2.data(), sig_got.data(), ew.numel(),
                          sig_bwd, 0.0f);
      ExpectBitIdentical(map_ref, map_got, ctx + "map");
      ExpectBitIdentical(zip_ref, zip_got, ctx + "zip");
      ExpectBitIdentical(leaky_ref, leaky_got, ctx + "map (twin)");
      ExpectBitIdentical(sig_ref, sig_got, ctx + "zip (twin)");

      EXPECT_EQ(sum_ref, sharded->ReduceSum(ew.data(), ew.numel()))
          << ctx << "reduce-sum";

      std::vector<float> qd_got(qn), qdi_got(qn);
      sharded->QueryDot(q.data(), q_rows.data(), qd_got.data(), qn, qm);
      sharded->QueryDotIndexed(q.data(), q_rows.data(), q_idx.data(),
                               qdi_got.data(), qn, qm);
      EXPECT_EQ(qd_ref, qd_got) << ctx << "querydot";
      EXPECT_EQ(qdi_ref, qdi_got) << ctx << "querydot-indexed";
    }
  }
  simd::SetSimdAvx512TilesEnabledForTest(true);
}

TEST(ShardedBackendParityTest, SpmmPlanCacheSurvivesWorkerChanges) {
  // Re-running the same matrix across worker counts must re-plan, not
  // reuse a cached cut built for another pool size.
  const KernelBackend* serial = FindBackend("serial");
  const KernelBackend* sharded = FindBackend("sharded");
  util::Rng rng(38);
  CsrMatrix m = RandomCsr(300, 80, 0.15, &rng);
  Tensor x = Tensor::RandomNormal({80, 32}, &rng);
  Tensor ref({300, 32});
  serial->Spmm(m, x.data(), ref.data(), 32);
  for (int64_t workers : {int64_t{2}, int64_t{7}, int64_t{2}}) {
    ScopedShardWorkers scoped(workers);
    for (int round = 0; round < 2; ++round) {  // second hit uses the cache
      Tensor got({300, 32});
      sharded->Spmm(m, x.data(), got.data(), 32);
      ExpectBitIdentical(ref, got, "plan-cache spmm @" +
                                       std::to_string(workers) + " round " +
                                       std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace tensor

// ---------------------------------------------------- sharded retrieval ----

namespace serve {
namespace {

using tensor::ScopedBackend;

// Serving model for the catalogue-shard tests, with duplicated item rows
// so exact ties cross shard boundaries. Catalogues of kShardedItems cut 3
// shards at kShardMinItemsPerShard (2048) with 3 or more workers.
std::shared_ptr<const core::ServingModel> TiedModel(int64_t num_users,
                                                    int64_t num_items,
                                                    int64_t width,
                                                    uint64_t seed) {
  core::ServingModel m;
  m.num_users = num_users;
  m.num_items = num_items;
  util::Rng rng(seed);
  m.embeddings = tensor::Tensor::RandomNormal({num_users + num_items, width},
                                              &rng);
  float* data = m.embeddings.data();
  // Clone item 3's embedding across the catalogue, including into other
  // shards, so the global top-k must break score ties by item id across
  // shard merges.
  for (int64_t clone : {int64_t{700}, int64_t{1400}, int64_t{2741},
                        int64_t{4500}, int64_t{6150}}) {
    if (clone >= num_items) continue;  // smaller catalogues skip the far clones
    for (int64_t c = 0; c < width; ++c) {
      data[(num_users + clone) * width + c] =
          data[(num_users + 3) * width + c];
    }
  }
  return std::make_shared<const core::ServingModel>(std::move(m));
}

constexpr int64_t kShardedItems = 3 * tensor::kShardMinItemsPerShard + 100;

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
                        const std::vector<RecEntry>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << context << " position " << i;
    EXPECT_EQ(got[i].score, want[i].score)
        << context << " position " << i;  // bitwise
  }
}

TEST(ShardedRetrieverTest, MatchesBruteForceIncludingTies) {
  auto model = TiedModel(12, kShardedItems, 8, 41);
  ASSERT_EQ(tensor::ShardPlan::Uniform(kShardedItems, 7,
                                       tensor::kShardMinItemsPerShard)
                .num_shards(),
            3);
  ExactRetriever unsharded(model, nullptr, ItemShardMode::kOff);
  ExactRetriever sharded(model, nullptr, ItemShardMode::kOn);
  for (int64_t workers : {int64_t{1}, int64_t{2}, int64_t{7}}) {
    ScopedShardWorkers scoped(workers);
    for (int64_t user : {int64_t{0}, int64_t{5}, int64_t{11}}) {
      for (int64_t k : {int64_t{1}, int64_t{10}, int64_t{300}}) {
        std::string ctx = "user " + std::to_string(user) + " k=" +
                          std::to_string(k) + " @" +
                          std::to_string(workers) + " workers";
        std::vector<RecEntry> want = BruteForceTopN(*model, user, k);
        ExpectExactlyEqual(sharded.RetrieveTopN(user, k), want, ctx);
        // The sharded merge must be bit-identical to the unsharded scan.
        ExpectExactlyEqual(sharded.RetrieveTopN(user, k),
                           unsharded.RetrieveTopN(user, k), ctx);
      }
    }
  }
}

TEST(ShardedRetrieverTest, SeenFilteringUnderSharding) {
  const int64_t num_users = 6, num_items = kShardedItems;
  auto model = TiedModel(num_users, num_items, 8, 42);
  // Synthetic seen sets: user u has interacted with every item where
  // item % (u + 2) == 0 under the target behavior.
  data::Dataset d;
  d.name = "shard-seen";
  d.num_users = num_users;
  d.num_items = num_items;
  d.behavior_names = {"buy"};
  d.target_behavior = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t item = 0; item < num_items; item += u + 2) {
      d.interactions.push_back({u, item, 0, item});
    }
  }
  auto seen = std::make_shared<const SeenItems>(SeenItems::FromDataset(d));
  ExactRetriever sharded(model, seen, ItemShardMode::kOn);
  ScopedShardWorkers scoped(3);
  for (int64_t u = 0; u < num_users; ++u) {
    ExpectExactlyEqual(sharded.RetrieveTopN(u, 25),
                       BruteForceTopN(*model, u, 25, seen.get()),
                       "seen user " + std::to_string(u));
  }
}

TEST(ShardedRetrieverTest, AutoModeFollowsActiveBackend) {
  auto model = TiedModel(4, kShardedItems, 8, 43);
  ExactRetriever retriever(model);  // kAuto
  ScopedShardWorkers scoped(3);
  std::vector<RecEntry> serial_out, sharded_out;
  {
    ScopedBackend backend("serial");
    serial_out = retriever.RetrieveTopN(2, 40);
  }
  {
    ScopedBackend backend("sharded");
    sharded_out = retriever.RetrieveTopN(2, 40);
  }
  ExpectExactlyEqual(sharded_out, serial_out, "auto-mode parity");
  ExpectExactlyEqual(serial_out, BruteForceTopN(*model, 2, 40),
                     "serial vs brute force");
}

TEST(ShardedRetrieverTest, BatchMatchesPerUserUnderSharding) {
  auto model = TiedModel(40, kShardedItems, 8, 44);
  ExactRetriever sharded(model, nullptr, ItemShardMode::kOn);
  ExactRetriever unsharded(model, nullptr, ItemShardMode::kOff);
  ScopedShardWorkers scoped(4);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < 40; ++u) users.push_back((u * 17) % 40);
  auto got = sharded.RetrieveBatch(users, 15);
  auto want = unsharded.RetrieveBatch(users, 15);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectExactlyEqual(got[i], want[i], "batch slot " + std::to_string(i));
  }

  // Small batch (n < kUserBlock, a single user block): exercises the path
  // that shards the ITEM range once for the whole block instead of
  // fanning blocks out, including duplicate users and tie merging.
  std::vector<int64_t> small = {3, 11, 3, 25, 39};
  auto got_small = sharded.RetrieveBatch(small, 15);
  auto want_small = unsharded.RetrieveBatch(small, 15);
  ASSERT_EQ(got_small.size(), want_small.size());
  for (size_t i = 0; i < got_small.size(); ++i) {
    ExpectExactlyEqual(got_small[i], want_small[i],
                       "small batch slot " + std::to_string(i));
  }
}

}  // namespace
}  // namespace serve

// ------------------------------------------------- trainer shard timings ----

namespace core {
namespace {

TEST(TrainerShardStatsTest, EpochReportsPerShardTimingsUnderShardedBackend) {
  tensor::ScopedBackend backend("sharded");
  tensor::SetShardWorkers(2);
  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(0.4));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.num_layers = 1;
  cfg.epochs = 1;
  GnmrTrainer trainer(cfg, split.train);
  TrainStats stats = trainer.TrainEpoch();
  EXPECT_GT(stats.shard.dispatches, 0u)
      << "no kernel fanned out to the shard pool";
  EXPECT_GT(stats.shard.tasks, 0u);
  EXPECT_EQ(stats.shard.workers, 2);
  ASSERT_EQ(stats.shard.busy_seconds.size(), 2u);
  EXPECT_GT(stats.shard.TotalBusySeconds(), 0.0);
  EXPECT_GE(stats.shard.MaxBusySeconds(), 0.0);
}

TEST(TrainerShardStatsTest, LossCurveBitIdenticalToSerialReference) {
  // Whole-training parity: the sharded backend must reproduce the serial
  // loss trajectory exactly at any worker count and on either kernel
  // table (same per-element accumulation order, fixed-chunk ReduceSum).
  // TaobaoLike(1.0) at d=16 (2400 nodes) is big enough that the step's
  // MatMuls, broadcasts, reductions and zips really fan out over the pool.
  data::Dataset train = data::GenerateSynthetic(data::TaobaoLike(1.0, 9));
  GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.num_layers = 1;
  cfg.num_channels = 4;
  cfg.embedding_dim = 16;
  cfg.epochs = 2;
  cfg.batch_users = 256;
  cfg.positives_per_user = 2;
  cfg.negatives_per_positive = 2;
  auto run_losses = [&](const tensor::KernelBackend* backend) {
    tensor::ScopedBackend scoped(backend);
    GnmrTrainer trainer(cfg, train);
    std::vector<double> losses;
    for (int64_t e = 0; e < cfg.epochs; ++e) {
      const EpochStats stats = trainer.TrainEpoch();
      // Equal NaN gradients would still give equal (hinge-clamped) losses;
      // a NaN here is an element some op left unwritten (see
      // Tensor::Uninitialized).
      EXPECT_TRUE(std::isfinite(stats.grad_norm)) << backend->name();
      losses.push_back(stats.mean_loss);
    }
    return losses;
  };
  const std::vector<double> serial = run_losses(tensor::FindBackend("serial"));
  const struct {
    const tensor::KernelBackend* backend;
    int64_t workers;
    const char* tag;
  } cases[] = {
      {tensor::FindBackend("sharded"), 1, "sharded@1"},
      {tensor::FindBackend("sharded"), 3, "sharded@3"},
      {tensor::ShardedSerialKernelsForTest(), 3, "sharded/serial-kernels@3"},
  };
  for (const auto& c : cases) {
    ScopedShardWorkers workers(c.workers);
    EXPECT_EQ(run_losses(c.backend), serial) << c.tag;  // bitwise
  }
}

TEST(TrainerShardStatsTest, OtherBackendsReportZeroShardActivity) {
  tensor::ScopedBackend backend("serial");
  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(0.3));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.num_layers = 1;
  cfg.epochs = 1;
  GnmrTrainer trainer(cfg, split.train);
  EpochStats stats = trainer.TrainEpoch();
  EXPECT_EQ(stats.shard.dispatches, 0u);
  EXPECT_EQ(stats.shard.tasks, 0u);
}

}  // namespace
}  // namespace core
}  // namespace gnmr
