// google-benchmark microbenchmarks of the kernels underneath GNMR:
// dense matmul, sparse SpMM, graph construction, negative sampling, one
// GNMR layer forward and a full training step — plus per-backend variants
// of the hot kernels (serial / sharded, see backend.h). They catch
// kernel-level performance regressions against the record in
// BENCH_micro_kernels.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/gnmr_model.h"
#include "src/core/gnmr_trainer.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/graph/negative_sampler.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/tensor_ops.h"

namespace {

using namespace gnmr;

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::RandomNormal({n, n}, &rng);
  tensor::Tensor b = tensor::Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(256);

void BM_SpmmPerNnz(benchmark::State& state) {
  int64_t rows = 2000, cols = 2000, d = 16;
  double density = static_cast<double>(state.range(0)) / 1000.0;
  util::Rng rng(2);
  std::vector<tensor::Coo> entries;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) entries.push_back({i, j, 1.0f});
    }
  }
  tensor::CsrMatrix m = tensor::CsrMatrix::FromCoo(rows, cols, entries);
  tensor::Tensor x = tensor::Tensor::RandomNormal({cols, d}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::ops::Spmm(m, x));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * d);
}
BENCHMARK(BM_SpmmPerNnz)->Arg(5)->Arg(20)->Arg(80);

// ---- Per-backend kernel variants -------------------------------------------
// Named <kernel>_backend/<name>. The sharded cases run the AVX2 range
// kernels (serial bodies on hosts without AVX2+FMA) on the std::thread
// shard pool; GNMR_SHARD_WORKERS sets the worker count, and 1 worker
// measures the vector kernels alone plus dispatch cost. The 512^3 MatMul
// case is the gauge for the vector tiles (>= 4x serial at 1 worker on
// AVX-512 hosts, same host same run).

void BM_MatMulBackend(benchmark::State& state, const std::string& backend) {
  const tensor::KernelBackend* b = tensor::FindBackend(backend);
  int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor x = tensor::Tensor::RandomNormal({n, n}, &rng);
  tensor::Tensor y = tensor::Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    tensor::Tensor out({n, n});
    b->MatMul(x.data(), y.data(), out.data(), n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK_CAPTURE(BM_MatMulBackend, serial, "serial")->Arg(256)->Arg(512);
BENCHMARK_CAPTURE(BM_MatMulBackend, sharded, "sharded")->Arg(256)->Arg(512);

void BM_SpmmBackend(benchmark::State& state, const std::string& backend) {
  const tensor::KernelBackend* b = tensor::FindBackend(backend);
  int64_t rows = 2000, cols = 2000, d = 16;
  util::Rng rng(2);
  std::vector<tensor::Coo> entries;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(0.02)) entries.push_back({i, j, 1.0f});
    }
  }
  tensor::CsrMatrix m = tensor::CsrMatrix::FromCoo(rows, cols, entries);
  tensor::Tensor x = tensor::Tensor::RandomNormal({cols, d}, &rng);
  for (auto _ : state) {
    tensor::Tensor out({rows, d});
    b->Spmm(m, x.data(), out.data(), d);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * d);
}
BENCHMARK_CAPTURE(BM_SpmmBackend, serial, "serial");
BENCHMARK_CAPTURE(BM_SpmmBackend, sharded, "sharded");

void BM_ScatterAddRowsBackend(benchmark::State& state,
                              const std::string& backend) {
  const tensor::KernelBackend* b = tensor::FindBackend(backend);
  int64_t rows = 4000, m = 32, count = 20000;
  util::Rng rng(3);
  std::vector<int64_t> idx;
  idx.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) idx.push_back(rng.UniformInt(0, rows - 1));
  tensor::Tensor src = tensor::Tensor::RandomNormal({count, m}, &rng);
  tensor::Tensor target({rows, m});
  for (auto _ : state) {
    b->ScatterAddRows(target.data(), rows, m, idx.data(), count, src.data());
    benchmark::DoNotOptimize(target.data());
  }
  state.SetItemsProcessed(state.iterations() * count * m);
}
BENCHMARK_CAPTURE(BM_ScatterAddRowsBackend, serial, "serial");
BENCHMARK_CAPTURE(BM_ScatterAddRowsBackend, sharded, "sharded");

void BM_RowDotBackend(benchmark::State& state, const std::string& backend) {
  const tensor::KernelBackend* b = tensor::FindBackend(backend);
  int64_t n = 4096, m = 64;
  util::Rng rng(5);
  tensor::Tensor x = tensor::Tensor::RandomNormal({n, m}, &rng);
  tensor::Tensor y = tensor::Tensor::RandomNormal({n, m}, &rng);
  tensor::Tensor out({n, 1});
  for (auto _ : state) {
    b->RowDot(x.data(), y.data(), out.data(), n, m);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * m);
}
BENCHMARK_CAPTURE(BM_RowDotBackend, serial, "serial");
BENCHMARK_CAPTURE(BM_RowDotBackend, sharded, "sharded");

// The sigmoid-backward zip is the hottest EltwiseZip in training; routing
// it through each backend exercises the sharded backend's pointer-keyed
// twin substitution (backend_simd.h) on a body the portable TUs
// instantiated.
void BM_ActivationZipBackend(benchmark::State& state,
                             const std::string& backend) {
  const tensor::KernelBackend* b = tensor::FindBackend(backend);
  int64_t n = 1 << 20;
  util::Rng rng(6);
  tensor::Tensor x = tensor::Tensor::RandomNormal({n, 1}, &rng);
  tensor::Tensor y = tensor::Tensor::RandomNormal({n, 1}, &rng);
  tensor::Tensor out({n, 1});
  for (auto _ : state) {
    b->EltwiseZip(x.data(), y.data(), out.data(), n,
                  &tensor::ZipLoop<&tensor::elops::SigmoidBwdEl>, 0.0f);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_ActivationZipBackend, serial, "serial");
BENCHMARK_CAPTURE(BM_ActivationZipBackend, sharded, "sharded");

void BM_GraphBuild(benchmark::State& state) {
  data::Dataset d = data::GenerateSynthetic(
      data::TaobaoLike(static_cast<double>(state.range(0)) / 100.0));
  for (auto _ : state) {
    auto graph = d.BuildGraph();
    benchmark::DoNotOptimize(graph->NumEdgesTotal());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(d.interactions.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(25)->Arg(100);

void BM_NegativeSampling(benchmark::State& state) {
  data::Dataset d = data::GenerateSynthetic(data::TaobaoLike(0.5));
  auto graph = d.BuildGraph();
  graph::NegativeSampler sampler(graph.get(), d.target_behavior);
  util::Rng rng(3);
  int64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleOne(u, &rng));
    u = (u + 1) % d.num_users;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeSampling);

void BM_GnmrLayerForward(benchmark::State& state) {
  data::Dataset d = data::GenerateSynthetic(
      data::TaobaoLike(static_cast<double>(state.range(0)) / 100.0));
  core::GnmrConfig cfg;
  cfg.use_pretrain = false;
  core::GnmrModel model(cfg, d);
  for (auto _ : state) {
    auto layers = model.Propagate();
    benchmark::DoNotOptimize(layers.back().value().data());
  }
  state.SetItemsProcessed(state.iterations() * model.graph().num_nodes());
}
BENCHMARK(BM_GnmrLayerForward)->Arg(25)->Arg(50)->Arg(100);

void BM_GnmrTrainEpoch(benchmark::State& state) {
  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(0.4));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  core::GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.batch_users = 256;
  core::GnmrTrainer trainer(cfg, split.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainEpoch().mean_loss);
  }
  state.SetItemsProcessed(state.iterations() * split.train.num_users);
}
BENCHMARK(BM_GnmrTrainEpoch);

void BM_EvalProtocol(benchmark::State& state) {
  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(0.4));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  util::Rng rng(4);
  auto cands = data::BuildEvalCandidates(split.train, split.test, 99, &rng);
  core::GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.epochs = 1;
  core::GnmrTrainer trainer(cfg, split.train);
  trainer.Train();
  auto scorer = trainer.MakeScorer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::EvaluateRanking(scorer.get(), cands, {1, 5, 10}).num_users);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cands.size()) * 100);
}
BENCHMARK(BM_EvalProtocol);

}  // namespace

BENCHMARK_MAIN();
