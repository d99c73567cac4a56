// google-benchmark suite for artifact loading: the owned-storage loader
// (read the whole file, verify every section CRC, copy into heap tensors)
// against the zero-copy mmap loader (map once, validate structure,
// construct views — O(1) in the embedding-table size). The gap between the
// two IS the feature: on a production-sized table the mapped open must be
// orders of magnitude faster and stay flat as the table grows.
//
// The artifact is synthetically inflated to GNMR_BENCH_MODEL_MB megabytes
// (default 128, so the default run measures the >=100 MB regime the
// acceptance bar names); CI records the JSON as BENCH_model_load. The
// CTest smoke runs at 2 MB so the suite stays fast.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/core/model_io.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"

namespace {

using namespace gnmr;

constexpr int64_t kWidth = 64;

int64_t ArtifactMb() {
  const char* env = std::getenv("GNMR_BENCH_MODEL_MB");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int64_t>(v);
  }
  return 128;
}

struct Artifact {
  std::string path;
  int64_t bytes = 0;
};

// Builds the artifact once per process; every benchmark loads the same
// file, so heap vs mapped is an apples-to-apples read of the same bytes.
const Artifact& SharedArtifact() {
  static const Artifact artifact = [] {
    const int64_t target_bytes = ArtifactMb() * (int64_t{1} << 20);
    const int64_t rows = target_bytes / (kWidth * static_cast<int64_t>(
                                                      sizeof(float)));
    GNMR_CHECK(rows >= 4) << "artifact size too small";
    core::ServingModel m;
    m.num_items = rows / 2;
    m.num_users = rows - m.num_items;
    m.embeddings = tensor::Tensor({rows, kWidth});
    float* data = m.embeddings.data();
    for (int64_t i = 0; i < m.embeddings.numel(); ++i) {
      data[i] = static_cast<float>((i % 997) - 498) * 0.01f;
    }
    Artifact a;
    a.path = std::string(P_tmpdir) + "/gnmr_bench_model.bin";
    GNMR_CHECK(core::SaveServingModel(m, a.path).ok());
    a.bytes = m.embeddings.numel() * static_cast<int64_t>(sizeof(float));
    return a;
  }();
  return artifact;
}

// Owned-storage load: streams the file, checks CRCs, copies into heap
// tensors. Cost is linear in the table size.
void BM_ModelLoadHeap(benchmark::State& state) {
  const Artifact& a = SharedArtifact();
  for (auto _ : state) {
    auto model = core::LoadServingModel(a.path);
    GNMR_CHECK(model.ok()) << model.status().ToString();
    benchmark::DoNotOptimize(
        std::as_const(model.value()).embeddings.data()[0]);
  }
  state.SetBytesProcessed(state.iterations() * a.bytes);
  state.counters["artifact_mb"] =
      static_cast<double>(a.bytes) / (1 << 20);
}
BENCHMARK(BM_ModelLoadHeap)->Unit(benchmark::kMillisecond);

// Zero-copy load: mmap + structural validation only; pages fault in on
// first touch. Cost is independent of the table size.
void BM_ModelLoadMapped(benchmark::State& state) {
  const Artifact& a = SharedArtifact();
  for (auto _ : state) {
    auto model = core::LoadServingModelMapped(a.path);
    GNMR_CHECK(model.ok()) << model.status().ToString();
    GNMR_CHECK(model.value().is_mapped());
    benchmark::DoNotOptimize(
        std::as_const(model.value()).embeddings.data()[0]);
  }
  state.SetBytesProcessed(state.iterations() * a.bytes);
  state.counters["artifact_mb"] =
      static_cast<double>(a.bytes) / (1 << 20);
}
BENCHMARK(BM_ModelLoadMapped)->Unit(benchmark::kMillisecond);

// The integrity knob: a mapped open that also verifies section CRCs pays
// one sequential pass — the price of paranoia, for the JSON record.
void BM_ModelLoadMappedVerified(benchmark::State& state) {
  const Artifact& a = SharedArtifact();
  for (auto _ : state) {
    auto model =
        core::LoadServingModelMapped(a.path, /*verify_checksums=*/true);
    GNMR_CHECK(model.ok()) << model.status().ToString();
    benchmark::DoNotOptimize(
        std::as_const(model.value()).embeddings.data()[0]);
  }
  state.SetBytesProcessed(state.iterations() * a.bytes);
}
BENCHMARK(BM_ModelLoadMappedVerified)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
