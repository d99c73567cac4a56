// Parity tests of the kernel backends (backend.h): "sharded" must match
// the "serial" reference bit-for-bit on every kernel
// (MatMul and its two transposed-operand forms, SpMM/Gather/Scatter/
// RowDot/map/zip, the rank-2 broadcast zips and their row/column sums,
// the fixed-chunk ReduceSum and the serving scans), on the AVX2 range
// kernels and on the serial ones. There is no sanctioned slack: the whole
// build compiles with -ffp-contract=off, so the vector tiles may not fuse
// multiply-adds the serial reference keeps separate — even under
// -march=native.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/ad_ops.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/backend.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/shard_pool.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"

namespace gnmr {
namespace tensor {
namespace {

// Backends under test, always compared against the serial reference: the
// registered "sharded" (AVX2 range kernels where the host supports them)
// and the same backend on the serial range kernels, which is what hosts
// without AVX2+FMA run. Both use the pool's default worker count here;
// shard_test additionally sweeps explicit 1/2/7-worker pools.
struct Variant {
  const KernelBackend* backend;
  std::string tag;
};

std::vector<Variant> Variants() {
  return {{FindBackend("sharded"), "sharded"},
          {ShardedSerialKernelsForTest(), "sharded/serial-kernels"}};
}

void ExpectBitIdentical(const Tensor& ref, const Tensor& got,
                        const std::string& context) {
  ASSERT_EQ(ref.shape(), got.shape()) << context;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(ref.data()[i], got.data()[i])
        << context << " at flat index " << i;
  }
}

// Random CSR with the requested shape; row `r` gets ~density*cols entries,
// and every third row is forced empty so ragged layouts are exercised.
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

// ------------------------------------------------------------------ registry --

TEST(BackendRegistryTest, AllBackendsRegistered) {
  ASSERT_EQ(AllBackends().size(), 2u);
  EXPECT_STREQ(AllBackends()[0]->name(), "serial");
  EXPECT_STREQ(AllBackends()[1]->name(), "sharded");
  for (const char* name : {"serial", "sharded"}) {
    const KernelBackend* b = FindBackend(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_STREQ(b->name(), name);
  }
  for (const char* gone : {"omp", "blocked", "simd", "blas", "cuda"}) {
    EXPECT_EQ(FindBackend(gone), nullptr) << gone;
  }
  // The serial-kernel instance is test-only: never what the registry
  // serves.
  EXPECT_NE(FindBackend("sharded"), ShardedSerialKernelsForTest());
  EXPECT_STREQ(ShardedSerialKernelsForTest()->name(), "sharded");
  // One class, so the instances differ only in table and cap: "serial" is
  // the reference table run inline, the test instance the same table on
  // the pool.
  const RangeKernels& serial_table = FindBackend("serial")->range_kernels();
  EXPECT_EQ(&ShardedSerialKernelsForTest()->range_kernels(), &serial_table);
  // The registered "sharded" runs the vector table exactly when the build
  // has it and cpuid reports AVX2+FMA (the vector table is only looked up
  // once cpuid allows it), and the reference table otherwise.
  const util::CpuFeatures& cpu = util::HostCpuFeatures();
  const RangeKernels* native =
      cpu.avx2 && cpu.fma ? simd::NativeSimdKernels() : nullptr;
  EXPECT_EQ(&FindBackend("sharded")->range_kernels(),
            native != nullptr ? native : &serial_table);
}

TEST(BackendRegistryTest, ScopedBackendSwitchesAndRestores) {
  const char* before = GetBackend().name();
  {
    ScopedBackend scoped("sharded");
    EXPECT_STREQ(GetBackend().name(), "sharded");
  }
  EXPECT_STREQ(GetBackend().name(), before);
}

TEST(BackendRegistryTest, SetBackendSelectsByName) {
  const char* before = GetBackend().name();
  SetBackend("serial");
  EXPECT_STREQ(GetBackend().name(), "serial");
  SetBackend(before);
}

TEST(BackendRegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(SetBackend("no-such-backend"), "unknown backend");
  for (const char* gone : {"omp", "blocked", "simd", "blas"}) {
    EXPECT_DEATH(SetBackend(gone), std::string("unknown backend '") + gone +
                                       "' \\(available: serial, sharded\\)");
  }
}

// -------------------------------------------------------------------- MatMul --

TEST(BackendParityTest, MatMulAllShapes) {
  // Includes 1-row/1-col panels and sizes that are not multiples of the
  // AVX2 register tiles (6 rows x 16/32 columns), so every edge
  // micro-kernel runs: partial row tiles, scalar column tails, and tiles
  // narrower than one vector.
  const struct { int64_t n, k, m; } shapes[] = {
      {1, 1, 1},    {1, 7, 1},     {5, 1, 3},    {3, 5, 7},
      {4, 16, 16},  {33, 17, 29},  {64, 64, 64}, {70, 31, 90},
      {6, 33, 16},  {13, 64, 37},  {65, 128, 96}, {2, 9, 130},
      {12, 8, 32},  {7, 40, 48},   {18, 21, 15},
  };
  const KernelBackend* serial = FindBackend("serial");
  util::Rng rng(11);
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandomNormal({s.n, s.k}, &rng);
    Tensor b = Tensor::RandomNormal({s.k, s.m}, &rng);
    Tensor ref({s.n, s.m});
    serial->MatMul(a.data(), b.data(), ref.data(), s.n, s.k, s.m);
    for (const Variant& v : Variants()) {
      Tensor got({s.n, s.m});
      v.backend->MatMul(a.data(), b.data(), got.data(), s.n, s.k,
                                s.m);
      ExpectBitIdentical(ref, got, v.tag + " matmul " +
                                       a.ShapeString() + "x" +
                                       b.ShapeString());
    }
  }
}

// Serial's MatMul skips a-elements that are exactly zero, which is
// observable when B holds non-finite values (0 * inf would otherwise
// poison a row with NaN). The AVX2 kernels must preserve the skip — their
// zero-scan routes affected row tiles through guarded tile kernels.
TEST(BackendParityTest, MatMulZeroSkipPreservesNonFinitePolicy) {
  const int64_t n = 13, k = 9, m = 40;  // partial tiles in both directions
  const int64_t kz = 4;                 // the k index whose B row holds inf
  util::Rng rng(22);
  Tensor a = Tensor::RandomNormal({n, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, m}, &rng);
  // Even rows of A skip column kz entirely; odd rows hit it with +1, so
  // their outputs become +inf (never NaN — a NaN would break ASSERT_EQ
  // even between identical tensors).
  for (int64_t i = 0; i < n; ++i) a.at(i, kz) = (i % 2 == 0) ? 0.0f : 1.0f;
  for (int64_t j = 0; j < m; j += 3) {
    b.at(kz, j) = std::numeric_limits<float>::infinity();
  }
  Tensor ref({n, m});
  FindBackend("serial")->MatMul(a.data(), b.data(), ref.data(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::isinf(ref.at(i, 0)), i % 2 != 0) << "test setup broken";
  }
  for (const Variant& v : Variants()) {
    Tensor got({n, m});
    v.backend->MatMul(a.data(), b.data(), got.data(), n, k, m);
    ExpectBitIdentical(ref, got, v.tag + " zero-skip matmul");
  }
}

TEST(BackendParityTest, MatMulAgainstNaiveTripleLoop) {
  util::Rng rng(12);
  int64_t n = 9, k = 13, m = 21;
  Tensor a = Tensor::RandomNormal({n, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, m}, &rng);
  for (const KernelBackend* backend : AllBackends()) {
    Tensor got({n, m});
    backend->MatMul(a.data(), b.data(), got.data(), n, k, m);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        double want = 0.0;
        for (int64_t p = 0; p < k; ++p) {
          want += static_cast<double>(a.at(i, p)) * b.at(p, j);
        }
        EXPECT_NEAR(got.at(i, j), want, 1e-4)
            << backend->name() << " at (" << i << "," << j << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------- SpMM --

TEST(BackendParityTest, SpmmRaggedAndEmptyCsr) {
  util::Rng rng(13);
  // d values straddle the AVX2 column panel (32) and vector width (8):
  // full panels, lone 8-wide chunks, and scalar tails all run.
  const struct { int64_t rows, cols, d; double density; } cases[] = {
      {1, 1, 1, 1.0},    {1, 40, 8, 0.3},      {60, 40, 1, 0.1},
      {60, 40, 9, 0.15}, {200, 100, 17, 0.05}, {40, 30, 32, 0.2},
      {30, 25, 33, 0.2}, {25, 50, 70, 0.15},
  };
  for (const auto& c : cases) {
    CsrMatrix m = RandomCsr(c.rows, c.cols, c.density, &rng);
    Tensor x = Tensor::RandomNormal({c.cols, c.d}, &rng);
    Tensor ref({c.rows, c.d});
    FindBackend("serial")->Spmm(m, x.data(), ref.data(), c.d);
    for (const Variant& v : Variants()) {
      Tensor got({c.rows, c.d});
      v.backend->Spmm(m, x.data(), got.data(), c.d);
      ExpectBitIdentical(ref, got, v.tag + " spmm nnz=" +
                                       std::to_string(m.nnz()));
    }
  }
  // Fully empty matrix: all outputs stay zero in every backend.
  CsrMatrix empty = CsrMatrix::FromCoo(5, 4, {});
  Tensor x = Tensor::RandomNormal({4, 3}, &rng);
  for (const KernelBackend* backend : AllBackends()) {
    Tensor got({5, 3});
    backend->Spmm(empty, x.data(), got.data(), 3);
    EXPECT_EQ(got.SumValue(), 0.0f) << backend->name();
  }
}

TEST(BackendParityTest, SpmmSkewedRowsCrossBinBoundaries) {
  // One pathological heavy row plus many light ones: exercises the
  // nnz-balanced shard plan with cuts that land mid-matrix.
  util::Rng rng(14);
  std::vector<Coo> entries;
  int64_t rows = 900, cols = 500, d = 16;
  for (int64_t c = 0; c < cols; ++c) entries.push_back({0, c, rng.Normal()});
  for (int64_t r = 1; r < rows; ++r) {
    for (int64_t k = 0; k < 6; ++k) {
      entries.push_back({r, rng.UniformInt(0, cols - 1), rng.Normal()});
    }
  }
  CsrMatrix m = CsrMatrix::FromCoo(rows, cols, entries);
  ASSERT_GT(m.nnz() * d, kParallelSpmmMinWork) << "case too small to fan out";
  Tensor x = Tensor::RandomNormal({cols, d}, &rng);
  Tensor ref({rows, d});
  FindBackend("serial")->Spmm(m, x.data(), ref.data(), d);
  for (const Variant& v : Variants()) {
    Tensor got({rows, d});
    v.backend->Spmm(m, x.data(), got.data(), d);
    ExpectBitIdentical(ref, got, v.tag + " skewed spmm");
  }
}

// ----------------------------------------------------------- gather/scatter --

TEST(BackendParityTest, GatherRowsIncludingRepeats) {
  util::Rng rng(15);
  Tensor table = Tensor::RandomNormal({40, 24}, &rng);
  std::vector<int64_t> idx = {0, 39, 7, 7, 7, 12, 0, 39};
  for (int64_t i = 0; i < 400; ++i) idx.push_back(rng.UniformInt(0, 39));
  Tensor ref({static_cast<int64_t>(idx.size()), 24});
  FindBackend("serial")->GatherRows(table.data(), 24, idx.data(),
                                    static_cast<int64_t>(idx.size()),
                                    ref.data());
  for (const Variant& v : Variants()) {
    Tensor got({static_cast<int64_t>(idx.size()), 24});
    v.backend->GatherRows(table.data(), 24, idx.data(),
                                  static_cast<int64_t>(idx.size()),
                                  got.data());
    ExpectBitIdentical(ref, got, v.tag + " gather");
  }
}

TEST(BackendParityTest, ScatterAddRowsDuplicateDestinations) {
  // Heavy duplication: accumulation order per target row must stay
  // ascending-source-row in every backend, so sums are bit-identical.
  util::Rng rng(16);
  int64_t rows = 50, m = 33;
  std::vector<int64_t> idx;
  for (int64_t r = 0; r < 2000; ++r) {
    // Zipf-ish: low target rows collide massively.
    idx.push_back(rng.UniformInt(0, rng.UniformInt(0, rows - 1)));
  }
  Tensor src = Tensor::RandomNormal({static_cast<int64_t>(idx.size()), m},
                                    &rng);
  Tensor ref({rows, m});
  FindBackend("serial")->ScatterAddRows(ref.data(), rows, m, idx.data(),
                                        static_cast<int64_t>(idx.size()),
                                        src.data());
  for (const Variant& v : Variants()) {
    Tensor got({rows, m});
    v.backend->ScatterAddRows(got.data(), rows, m, idx.data(),
                                      static_cast<int64_t>(idx.size()),
                                      src.data());
    ExpectBitIdentical(ref, got, v.tag + " scatter-add");
  }
}

// ------------------------------------------------------- rowdot / map / zip --

TEST(BackendParityTest, RowDotAndEltwiseKernels) {
  util::Rng rng(17);
  for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{500}}) {
    Tensor a = Tensor::RandomNormal({n, 65}, &rng);
    Tensor b = Tensor::RandomNormal({n, 65}, &rng);
    Tensor dot_ref({n, 1}), map_ref(a.shape()), zip_ref(a.shape());
    KernelBackend::MapFn relu = [](const float* in, float* out, int64_t len,
                                   float) {
      for (int64_t i = 0; i < len; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    };
    KernelBackend::ZipFn mul = [](const float* x, const float* y, float* out,
                                  int64_t len, float) {
      for (int64_t i = 0; i < len; ++i) out[i] = x[i] * y[i];
    };
    const KernelBackend* serial = FindBackend("serial");
    serial->RowDot(a.data(), b.data(), dot_ref.data(), n, 65);
    serial->EltwiseMap(a.data(), map_ref.data(), a.numel(), relu, 0.0f);
    serial->EltwiseZip(a.data(), b.data(), zip_ref.data(), a.numel(), mul,
                       0.0f);
    for (const Variant& v : Variants()) {
      const KernelBackend* backend = v.backend;
      Tensor dot({n, 1}), map(a.shape()), zip(a.shape());
      backend->RowDot(a.data(), b.data(), dot.data(), n, 65);
      backend->EltwiseMap(a.data(), map.data(), a.numel(), relu, 0.0f);
      backend->EltwiseZip(a.data(), b.data(), zip.data(), a.numel(), mul,
                          0.0f);
      ExpectBitIdentical(dot_ref, dot, v.tag + " rowdot");
      ExpectBitIdentical(map_ref, map, v.tag + " map");
      ExpectBitIdentical(zip_ref, zip, v.tag + " zip");
    }
  }
}

TEST(BackendParityTest, ReduceSumBitIdenticalAcrossBackends) {
  util::Rng rng(18);
  // Spans multiple kReduceSumChunk chunks plus a ragged tail; the chunked
  // association is part of the contract, so doubles compare with ==.
  for (int64_t n : {int64_t{1}, kReduceSumChunk - 1, kReduceSumChunk + 1,
                    3 * kReduceSumChunk + 123}) {
    Tensor a = Tensor::RandomNormal({n}, &rng);
    double ref = FindBackend("serial")->ReduceSum(a.data(), n);
    for (const Variant& v : Variants()) {
      EXPECT_EQ(ref, v.backend->ReduceSum(a.data(), n))
          << v.tag << " n=" << n;
    }
  }
}

TEST(BackendParityTest, RowDotRaggedWidths) {
  // Widths around the kReduceLanes=8 lane group: below one group, exact
  // multiples, and ragged tails of every phase.
  util::Rng rng(23);
  for (int64_t m : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{9},
                    int64_t{15}, int64_t{16}, int64_t{64}, int64_t{77}}) {
    int64_t n = 13;
    Tensor a = Tensor::RandomNormal({n, m}, &rng);
    Tensor b = Tensor::RandomNormal({n, m}, &rng);
    Tensor ref({n, 1});
    FindBackend("serial")->RowDot(a.data(), b.data(), ref.data(), n, m);
    for (const Variant& v : Variants()) {
      Tensor got({n, 1});
      v.backend->RowDot(a.data(), b.data(), got.data(), n, m);
      ExpectBitIdentical(ref, got, v.tag + " rowdot m=" + std::to_string(m));
    }
  }
}

// ------------------------------------------------------ serving scan ops --

// QueryDot / QueryDotIndexed are the serving-scan entry points (one query
// row against many item rows); their contract is the same lane-partial
// accumulation as RowDot, so both variants must match serial bit-for-bit,
// including at widths below one kReduceLanes group and with ragged tails.
TEST(BackendParityTest, QueryDotAllBackendsBitIdentical) {
  util::Rng rng(30);
  const KernelBackend* serial = FindBackend("serial");
  for (int64_t m : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{32},
                    int64_t{65}}) {
    const int64_t n = 301;  // not a multiple of any scan block
    Tensor q = Tensor::RandomNormal({m}, &rng);
    Tensor rows = Tensor::RandomNormal({n, m}, &rng);
    std::vector<float> ref(n), got(n);
    serial->QueryDot(q.data(), rows.data(), ref.data(), n, m);
    // The plain-loop reference: lane-partial per row.
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], static_cast<float>(
                            LanePartialDot(q.data(), rows.data() + i * m, m)))
          << "serial QueryDot breaks the LanePartialDot contract at row "
          << i << " m=" << m;
    }
    for (const Variant& v : Variants()) {
      v.backend->QueryDot(q.data(), rows.data(), got.data(), n, m);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref[i], got[i]) << v.tag << " querydot m=" << m << " row "
                                  << i;
      }
    }
  }
}

TEST(BackendParityTest, QueryDotIndexedGatherParity) {
  util::Rng rng(31);
  const int64_t rows = 200, m = 33;
  Tensor q = Tensor::RandomNormal({m}, &rng);
  Tensor base = Tensor::RandomNormal({rows, m}, &rng);
  // Repeats and out-of-order indices, like real posting lists.
  std::vector<int64_t> idx = {0, 199, 7, 7, 63, 5, 199, 0};
  for (int64_t i = 0; i < 300; ++i) idx.push_back(rng.UniformInt(0, rows - 1));
  const int64_t n = static_cast<int64_t>(idx.size());
  std::vector<float> ref(idx.size()), got(idx.size());
  FindBackend("serial")->QueryDotIndexed(q.data(), base.data(), idx.data(),
                                         ref.data(), n, m);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ref[static_cast<size_t>(i)],
              static_cast<float>(
                  LanePartialDot(q.data(), base.data() + idx[i] * m, m)))
        << "indexed scan must score exactly like a direct row dot";
  }
  for (const Variant& v : Variants()) {
    v.backend->QueryDotIndexed(q.data(), base.data(), idx.data(),
                                       got.data(), n, m);
    for (size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << v.tag << " querydot-indexed row " << i;
    }
  }
}

// ------------------------------------------------------- vector-kernel paths --

// The eltwise bodies the ops layer actually dispatches (the portable
// MapLoop/ZipLoop instantiations over element_ops.h bodies) are the
// pointers the sharded backend translates to its AVX2 twins — unlike the
// local lambdas above, which it runs as-given. Cover both translated maps
// and translated zips, at sizes above and below the parallel fan-out
// threshold and with ragged (non-multiple-of-8) lengths.
TEST(BackendParityTest, ShardedTranslatesKnownEltwiseBodies) {
  util::Rng rng(24);
  const KernelBackend* serial = FindBackend("serial");
  for (int64_t n : {int64_t{5}, int64_t{1000}, kParallelEltwiseMinWork + 7}) {
    Tensor a = Tensor::RandomNormal({n}, &rng);
    Tensor b = Tensor::RandomNormal({n}, &rng);
    // Sqrt gets a non-negative input (NaN == NaN is false, so a negative
    // input would fail the comparison even on identical outputs).
    Tensor a_sq(a.shape());
    for (int64_t i = 0; i < n; ++i) a_sq.data()[i] = a.data()[i] * a.data()[i];
    const struct {
      KernelBackend::MapFn f;
      float p;
      const char* tag;
      const Tensor* in;
    } maps[] = {
        {&MapLoop<&elops::ReluEl>, 0.0f, "relu", &a},
        {&MapLoop<&elops::LeakyReluEl>, 0.1f, "leaky-relu", &a},
        {&MapLoop<&elops::AddScalarEl>, 1.75f, "add-scalar", &a},
        {&MapLoop<&elops::SqrtEl>, 0.0f, "sqrt", &a_sq},
    };
    for (const auto& mc : maps) {
      Tensor ref(a.shape());
      serial->EltwiseMap(mc.in->data(), ref.data(), n, mc.f, mc.p);
      for (const Variant& v : Variants()) {
        Tensor got(a.shape());
        v.backend->EltwiseMap(mc.in->data(), got.data(), n, mc.f, mc.p);
        ExpectBitIdentical(ref, got, v.tag + " map " + mc.tag +
                                         " n=" + std::to_string(n));
      }
    }
    const struct { KernelBackend::ZipFn f; float p; const char* tag; }
        zips[] = {
            {&ZipLoop<&elops::MulEl>, 0.0f, "mul"},
            {&ZipLoop<&elops::SigmoidBwdEl>, 0.0f, "sigmoid-bwd"},
            {&ZipLoop<&elops::TanhBwdEl>, 0.0f, "tanh-bwd"},
            {&ZipLoop<&elops::SqrtBwdEl>, 0.0f, "sqrt-bwd"},
        };
    for (const auto& zc : zips) {
      Tensor ref(a.shape());
      serial->EltwiseZip(a.data(), b.data(), ref.data(), n, zc.f, zc.p);
      for (const Variant& v : Variants()) {
        Tensor got(a.shape());
        v.backend->EltwiseZip(a.data(), b.data(), got.data(), n, zc.f, zc.p);
        ExpectBitIdentical(ref, got, v.tag + " zip " + zc.tag +
                                         " n=" + std::to_string(n));
      }
    }
  }
}

// On AVX-512 hosts MatMul dispatches 32-column zmm tiles; forcing them
// off covers the AVX2 16-column path in the same run (on non-AVX-512
// hosts this is a no-op and the test re-covers the AVX2 path).
TEST(BackendParityTest, ShardedMatMulAvx2TilePathForced) {
  simd::SetSimdAvx512TilesEnabledForTest(false);
  const struct { int64_t n, k, m; } shapes[] = {
      {12, 30, 64}, {13, 16, 37}, {6, 8, 16},
  };
  util::Rng rng(25);
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandomNormal({s.n, s.k}, &rng);
    Tensor b = Tensor::RandomNormal({s.k, s.m}, &rng);
    Tensor ref({s.n, s.m}), got({s.n, s.m});
    FindBackend("serial")->MatMul(a.data(), b.data(), ref.data(), s.n, s.k,
                                  s.m);
    FindBackend("sharded")->MatMul(a.data(), b.data(), got.data(), s.n, s.k,
                                   s.m);
    ExpectBitIdentical(ref, got, "sharded avx2-tile matmul " +
                                     a.ShapeString() + "x" + b.ShapeString());
  }
  simd::SetSimdAvx512TilesEnabledForTest(true);
}

// ------------------------------- broadcasts, reductions, transposed MatMul --

// RAII worker-count switch so the sweeps below cut ragged shards.
class ScopedShardWorkers {
 public:
  explicit ScopedShardWorkers(int64_t workers) : previous_(ShardWorkers()) {
    SetShardWorkers(workers);
  }
  ~ScopedShardWorkers() { SetShardWorkers(previous_); }

 private:
  int64_t previous_;
};

// Runs `check` for every variant at 1 and 3 pool workers (3 never divides
// the ragged row counts below evenly).
void ForEachVariantAndWorkers(
    const std::function<void(const KernelBackend*, const std::string&)>&
        check) {
  for (const Variant& v : Variants()) {
    for (int64_t workers : {int64_t{1}, int64_t{3}}) {
      ScopedShardWorkers scoped(workers);
      check(v.backend, v.tag + "@" + std::to_string(workers) + "w");
    }
  }
}

// Row counts for width m: tiny, just past one shard's minimum, and large
// enough to fan out (n * m over every parallel threshold) with a ragged
// last shard.
std::vector<int64_t> RaggedRows(int64_t m) {
  return {1, 7, 4099, (int64_t{1} << 16) / m + 13};
}

TEST(BackendParityTest, RunRowsCoversEveryRowOnce) {
  // Serial runs the body once over [0, n); sharded cuts it into ordered,
  // disjoint ranges once n * work reaches kParallelRowsMinWork. Either
  // way every row is visited exactly once.
  for (const KernelBackend* backend : AllBackends()) {
    for (int64_t workers : {int64_t{1}, int64_t{3}}) {
      ScopedShardWorkers scoped(workers);
      for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{4099}}) {
        std::vector<int> visits(static_cast<size_t>(n), 0);
        std::atomic<int64_t> num_calls{0};
        backend->RunRows(n, 64, [&](int64_t lo, int64_t hi) {
          ASSERT_LE(0, lo);
          ASSERT_LT(lo, hi);
          ASSERT_LE(hi, n);
          num_calls.fetch_add(1);
          for (int64_t r = lo; r < hi; ++r) ++visits[static_cast<size_t>(r)];
        });
        const std::string tag = std::string(backend->name()) + "@" +
                                std::to_string(workers) + " n=" +
                                std::to_string(n);
        EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), n) << tag;
        const bool fans_out = std::string(backend->name()) == "sharded" &&
                              workers > 1 && n * 64 >= kParallelRowsMinWork;
        EXPECT_EQ(num_calls.load() > 1, fans_out) << tag;
      }
    }
  }
}

TEST(BackendParityTest, BroadcastZipBothKindsAndOrders) {
  util::Rng rng(31);
  const KernelBackend* serial = FindBackend("serial");
  const KernelBackend::ZipFn sub = &ZipLoop<&elops::SubEl>;
  for (int64_t m : {int64_t{1}, int64_t{3}, int64_t{16}, int64_t{17}}) {
    for (int64_t n : RaggedRows(m)) {
      Tensor a = Tensor::RandomNormal({n, m}, &rng);
      Tensor col = Tensor::RandomNormal({n, 1}, &rng);
      Tensor row = Tensor::RandomNormal({1, m}, &rng);
      for (auto kind : {KernelBackend::Broadcast::kCol,
                        KernelBackend::Broadcast::kRow}) {
        const Tensor& b =
            kind == KernelBackend::Broadcast::kCol ? col : row;
        for (bool b_first : {false, true}) {
          // Sub is order-sensitive, so a swapped operand shows.
          Tensor ref({n, m});
          serial->BroadcastZip(a.data(), b.data(), ref.data(), n, m, kind,
                               b_first, sub, 0.0f);
          for (int64_t i = 0; i < n; i += std::max<int64_t>(1, n / 5)) {
            for (int64_t j = 0; j < m; ++j) {
              const float bb = kind == KernelBackend::Broadcast::kCol
                                   ? col.at(i, 0)
                                   : row.at(0, j);
              const float want =
                  b_first ? bb - a.at(i, j) : a.at(i, j) - bb;
              ASSERT_EQ(ref.at(i, j), want) << "serial definition";
            }
          }
          const std::string what =
              std::string(kind == KernelBackend::Broadcast::kCol ? " col"
                                                                 : " row") +
              (b_first ? " b-first " : " a-first ") + a.ShapeString();
          ForEachVariantAndWorkers([&](const KernelBackend* backend,
                                       const std::string& tag) {
            Tensor got({n, m});
            backend->BroadcastZip(a.data(), b.data(), got.data(), n, m, kind,
                                  b_first, sub, 0.0f);
            ExpectBitIdentical(ref, got, tag + what);
            // In place: out aliases the full operand.
            Tensor inplace = a;
            backend->BroadcastZip(inplace.data(), b.data(), inplace.data(), n,
                                  m, kind, b_first, sub, 0.0f);
            ExpectBitIdentical(ref, inplace, tag + " in-place" + what);
          });
        }
      }
    }
  }
}

TEST(BackendParityTest, RowAndColSumsRagged) {
  util::Rng rng(32);
  const KernelBackend* serial = FindBackend("serial");
  for (int64_t m : {int64_t{1}, int64_t{3}, int64_t{16}, int64_t{17},
                    int64_t{200}}) {
    for (int64_t n : RaggedRows(m)) {
      Tensor t = Tensor::RandomNormal({n, m}, &rng);
      Tensor rows_ref({n, 1}), cols_ref({1, m});
      serial->RowSums(t.data(), rows_ref.data(), n, m);
      serial->ColSums(t.data(), cols_ref.data(), n, m);
      // The serial kernels are the ReduceToShape definition: float
      // accumulation from +0.0f in ascending order.
      float first_row = 0.0f, first_col = 0.0f;
      for (int64_t j = 0; j < m; ++j) first_row += t.at(0, j);
      for (int64_t i = 0; i < n; ++i) first_col += t.at(i, 0);
      ASSERT_EQ(rows_ref.at(0, 0), first_row);
      ASSERT_EQ(cols_ref.at(0, 0), first_col);
      ForEachVariantAndWorkers([&](const KernelBackend* backend,
                                   const std::string& tag) {
        Tensor rows_got({n, 1}), cols_got({1, m});
        backend->RowSums(t.data(), rows_got.data(), n, m);
        backend->ColSums(t.data(), cols_got.data(), n, m);
        ExpectBitIdentical(rows_ref, rows_got,
                           tag + " row sums " + t.ShapeString());
        ExpectBitIdentical(cols_ref, cols_got,
                           tag + " col sums " + t.ShapeString());
      });
    }
  }
}

TEST(BackendParityTest, TransposedMatMulsMatchMaterialisedTranspose) {
  // The reference is serial MatMul against an explicit transpose: the
  // transposed-operand kernels must reproduce it bit for bit, zero-skip
  // included (a third of A's entries are zeroed, as after a ReLU).
  const struct { int64_t n, k, m; } shapes[] = {
      {1, 1, 1},     {5, 3, 17},   {13, 16, 16},   {7, 300, 9},
      {4099, 16, 8}, {4099, 16, 1}, {1000, 17, 33}, {37, 64, 48},
  };
  util::Rng rng(33);
  const KernelBackend* serial = FindBackend("serial");
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandomNormal({s.n, s.k}, &rng);
    for (int64_t i = 0; i < a.numel(); i += 3) a.data()[i] = 0.0f;
    Tensor bt = Tensor::RandomNormal({s.m, s.k}, &rng);  // b^T, stored [m,k]
    Tensor at = ops::Transpose(a);                       // a^T, stored [k,n]
    Tensor b = ops::Transpose(bt);
    Tensor ref({s.n, s.m});
    serial->MatMul(a.data(), b.data(), ref.data(), s.n, s.k, s.m);
    // Weight-gradient shape: MatMulTransA(at, g) = MatMul(a, g).
    Tensor g = Tensor::RandomNormal({s.k, s.m}, &rng);
    Tensor wref({s.n, s.m});
    serial->MatMul(a.data(), g.data(), wref.data(), s.n, s.k, s.m);
    for (const KernelBackend* backend : AllBackends()) {
      Tensor got({s.n, s.m});
      backend->MatMulTransB(a.data(), bt.data(), got.data(), s.n, s.k, s.m);
      ExpectBitIdentical(ref, got,
                         std::string(backend->name()) + " a x b^T " +
                             a.ShapeString() + "x" + bt.ShapeString() + "^T");
      Tensor wgot({s.n, s.m});
      backend->MatMulTransA(at.data(), g.data(), wgot.data(), s.n, s.k, s.m);
      ExpectBitIdentical(wref, wgot,
                         std::string(backend->name()) + " a^T x g " +
                             at.ShapeString() + "^T x" + g.ShapeString());
    }
    for (bool avx512 : {true, false}) {
      simd::SetSimdAvx512TilesEnabledForTest(avx512);
      ForEachVariantAndWorkers([&](const KernelBackend* backend,
                                   const std::string& tag) {
        const std::string ctx = tag + (avx512 ? "" : "/avx2-tiles");
        Tensor got({s.n, s.m});
        backend->MatMulTransB(a.data(), bt.data(), got.data(), s.n, s.k, s.m);
        ExpectBitIdentical(ref, got, ctx + " a x b^T " + a.ShapeString());
        Tensor wgot({s.n, s.m});
        backend->MatMulTransA(at.data(), g.data(), wgot.data(), s.n, s.k,
                              s.m);
        ExpectBitIdentical(wref, wgot, ctx + " a^T x g " + at.ShapeString());
      });
    }
    simd::SetSimdAvx512TilesEnabledForTest(true);
  }
}

// The transposed forms keep MatMul's zero-skip: a zero in the left
// operand never multiplies the right operand's inf (which would give NaN).
TEST(BackendParityTest, TransposedMatMulsKeepZeroSkip) {
  const int64_t n = 13, k = 9, m = 40, kz = 4;
  util::Rng rng(35);
  Tensor a = Tensor::RandomNormal({n, k}, &rng);
  Tensor bt = Tensor::RandomNormal({m, k}, &rng);
  for (int64_t i = 0; i < n; ++i) a.at(i, kz) = (i % 2 == 0) ? 0.0f : 1.0f;
  for (int64_t j = 0; j < m; j += 3) {
    bt.at(j, kz) = std::numeric_limits<float>::infinity();
  }
  Tensor at = ops::Transpose(a);
  Tensor b = ops::Transpose(bt);
  Tensor ref({n, m});
  FindBackend("serial")->MatMul(a.data(), b.data(), ref.data(), n, k, m);
  ASSERT_TRUE(std::isinf(ref.at(1, 0)) && !std::isinf(ref.at(0, 0)));
  for (bool avx512 : {true, false}) {
    simd::SetSimdAvx512TilesEnabledForTest(avx512);
    for (const KernelBackend* backend :
         {FindBackend("serial"), FindBackend("sharded"),
          ShardedSerialKernelsForTest()}) {
      Tensor got({n, m}), wgot({n, m});
      backend->MatMulTransB(a.data(), bt.data(), got.data(), n, k, m);
      backend->MatMulTransA(at.data(), b.data(), wgot.data(), n, k, m);
      ExpectBitIdentical(ref, got, std::string(backend->name()) + " a x b^T");
      ExpectBitIdentical(ref, wgot, std::string(backend->name()) + " a^T x b");
    }
  }
  simd::SetSimdAvx512TilesEnabledForTest(true);
}

// The ops-level wrappers route every shape through the new kernels and
// agree with the strided definition.
TEST(BackendDispatchTest, BroadcastOpsAndReduceToShapeAcrossBackends) {
  util::Rng rng(34);
  Tensor x = Tensor::RandomNormal({2503, 17}, &rng);
  Tensor col = Tensor::RandomNormal({2503, 1}, &rng);
  Tensor row = Tensor::RandomNormal({1, 17}, &rng);
  Tensor vec = Tensor::RandomNormal({17}, &rng);
  Tensor w = Tensor::RandomNormal({16, 17}, &rng);
  auto run = [&] {
    std::vector<Tensor> outs = {
        ops::Mul(x, col),  ops::Mul(col, x),  ops::Add(x, row),
        ops::Add(row, x),  ops::Sub(x, col),  ops::Sub(row, x),
        ops::Div(col, x),  ops::Div(x, row),  ops::Add(x, vec),
        ops::ReduceToShape(x, {2503, 1}), ops::ReduceToShape(x, {1, 17}),
        ops::ReduceToShape(x, {17}),      ops::SumAxis(x, 0),
        ops::MatMulTransB(x, w), ops::MatMulTransA(x, x)};
    return outs;
  };
  std::vector<Tensor> ref;
  {
    ScopedBackend scoped("serial");
    ref = run();
  }
  EXPECT_EQ(ref[0].at(5, 3), x.at(5, 3) * col.at(5, 0));
  EXPECT_EQ(ref[5].at(9, 2), row.at(0, 2) - x.at(9, 2));
  EXPECT_EQ(ref[6].at(1, 4), col.at(1, 0) / x.at(1, 4));
  {
    ScopedBackend scoped("sharded");
    std::vector<Tensor> got = run();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ExpectBitIdentical(ref[i], got[i], "op " + std::to_string(i));
    }
  }
}

// --------------------------------------------------------- ops-level dispatch --

// Every KernelBackend op, at sizes above every kParallel*MinWork, with
// whether the uncapped backend fans it out to the pool.
struct PoolOp {
  const char* name;
  bool fans_out;
  std::function<void(const KernelBackend&)> run;
};

std::vector<PoolOp> EveryOpAboveFanOutThresholds(util::Rng* rng) {
  constexpr int64_t n = 64, k = 64, m = 32;  // n*k*m = 2^17 multiply-adds
  static_assert(n * k * m >= kParallelMatMulMinWork);
  constexpr int64_t rows = 1024, width = 64;  // 2^16 floats per row op
  static_assert(rows * width >= kParallelRowsMinWork);
  constexpr int64_t len = int64_t{1} << 16;  // 16 ReduceSum chunks
  static_assert(len >= kParallelEltwiseMinWork && len > kReduceSumChunk);
  auto a = std::make_shared<Tensor>(Tensor::RandomNormal({n, k}, rng));
  auto b = std::make_shared<Tensor>(Tensor::RandomNormal({k, m}, rng));
  auto bt = std::make_shared<Tensor>(Tensor::RandomNormal({m, k}, rng));
  auto at = std::make_shared<Tensor>(Tensor::RandomNormal({k, n}, rng));
  auto x = std::make_shared<Tensor>(Tensor::RandomNormal({rows, width}, rng));
  auto y = std::make_shared<Tensor>(Tensor::RandomNormal({rows, width}, rng));
  auto flat = std::make_shared<Tensor>(Tensor::RandomNormal({len}, rng));
  auto csr = std::make_shared<CsrMatrix>(
      RandomCsr(rows, rows, 0.02, rng, /*with_empty_rows=*/false));
  EXPECT_GE(csr->nnz() * width, kParallelSpmmMinWork);
  auto idx = std::make_shared<std::vector<int64_t>>();
  for (int64_t r = 0; r < rows; ++r) idx->push_back((r * 7) % rows);
  const KernelBackend::MapFn relu = &MapLoop<&elops::ReluEl>;
  const KernelBackend::ZipFn add = &ZipLoop<&elops::AddEl>;
  return {
      {"MatMul", true,
       [=](const KernelBackend& be) {
         Tensor out({n, m});
         be.MatMul(a->data(), b->data(), out.data(), n, k, m);
       }},
      {"MatMulTransB", true,
       [=](const KernelBackend& be) {
         Tensor out({n, m});
         be.MatMulTransB(a->data(), bt->data(), out.data(), n, k, m);
       }},
      {"MatMulTransA", true,
       [=](const KernelBackend& be) {
         Tensor out({n, m});
         be.MatMulTransA(at->data(), b->data(), out.data(), n, k, m);
       }},
      {"Spmm", true,
       [=](const KernelBackend& be) {
         Tensor out({rows, width});
         be.Spmm(*csr, x->data(), out.data(), width);
       }},
      {"GatherRows", true,
       [=](const KernelBackend& be) {
         Tensor out({rows, width});
         be.GatherRows(x->data(), width, idx->data(), rows, out.data());
       }},
      {"ScatterAddRows", false,
       [=](const KernelBackend& be) {
         Tensor out({rows, width});
         be.ScatterAddRows(out.data(), rows, width, idx->data(), rows,
                           x->data());
       }},
      {"RowDot", true,
       [=](const KernelBackend& be) {
         Tensor out({rows});
         be.RowDot(x->data(), y->data(), out.data(), rows, width);
       }},
      {"EltwiseMap", true,
       [=](const KernelBackend& be) {
         Tensor out({len});
         be.EltwiseMap(flat->data(), out.data(), len, relu, 0.0f);
       }},
      {"EltwiseZip", true,
       [=](const KernelBackend& be) {
         Tensor out({rows, width});
         be.EltwiseZip(x->data(), y->data(), out.data(), rows * width, add,
                       0.0f);
       }},
      {"ReduceSum", true,
       [=](const KernelBackend& be) { be.ReduceSum(flat->data(), len); }},
      {"BroadcastZip", false,
       [=](const KernelBackend& be) {
         Tensor out({rows, width});
         be.BroadcastZip(x->data(), y->data(), out.data(), rows, width,
                         KernelBackend::Broadcast::kCol, false, add, 0.0f);
       }},
      {"RowSums", false,
       [=](const KernelBackend& be) {
         Tensor out({rows});
         be.RowSums(x->data(), out.data(), rows, width);
       }},
      {"ColSums", false,
       [=](const KernelBackend& be) {
         Tensor out({width});
         be.ColSums(x->data(), out.data(), rows, width);
       }},
      {"RunRows", true,
       [=](const KernelBackend& be) {
         be.RunRows(rows, width, [](int64_t, int64_t) {});
       }},
      {"QueryDot", false,
       [=](const KernelBackend& be) {
         Tensor out({rows});
         be.QueryDot(y->data(), x->data(), out.data(), rows, width);
       }},
      {"QueryDotIndexed", false,
       [=](const KernelBackend& be) {
         Tensor out({rows});
         be.QueryDotIndexed(y->data(), x->data(), idx->data(), out.data(),
                            rows, width);
       }},
  };
}

TEST(BackendDispatchTest, SerialNeverDispatchesToThePool) {
  ScopedShardWorkers workers(3);
  util::Rng rng(36);
  const std::vector<PoolOp> ops = EveryOpAboveFanOutThresholds(&rng);
  ASSERT_EQ(ops.size(), 16u);
  // Control: the same reference table without the cap fans out every op
  // that dispatches at all, so the sizes do clear the thresholds.
  for (const PoolOp& op : ops) {
    ScopedBackend scoped(ShardedSerialKernelsForTest());
    const uint64_t before = GlobalShardPoolStats().dispatches;
    op.run(GetBackend());
    EXPECT_EQ(GlobalShardPoolStats().dispatches > before, op.fans_out)
        << op.name;
  }
  for (const PoolOp& op : ops) {
    ScopedBackend scoped("serial");
    const uint64_t before = GlobalShardPoolStats().dispatches;
    op.run(GetBackend());
    EXPECT_EQ(GlobalShardPoolStats().dispatches, before) << op.name;
  }
}

TEST(BackendDispatchTest, OpsRouteThroughSelectedBackend) {
  util::Rng rng(19);
  Tensor a = Tensor::RandomNormal({30, 20}, &rng);
  Tensor b = Tensor::RandomNormal({20, 10}, &rng);
  Tensor ref, sharded;
  {
    ScopedBackend scoped("serial");
    ref = ops::MatMul(a, b);
  }
  {
    ScopedBackend scoped("sharded");
    sharded = ops::MatMul(a, b);
  }
  ExpectBitIdentical(ref, sharded, "ops::MatMul dispatch");
}

// The GatherRows gradient is a ScatterAddRows with duplicate destinations;
// gradcheck it with the sharded backend active so its target-row
// partitioned scatter path backs a real autodiff computation.
TEST(BackendDispatchTest, GatherScatterGradCheckUnderShardedBackend) {
  ScopedBackend scoped("sharded");
  util::Rng rng(20);
  ad::Var table =
      ad::Var::Param(Tensor::RandomNormal({6, 5}, &rng));
  std::vector<int64_t> idx = {0, 3, 3, 5, 0, 0, 2};
  util::Rng wrng(21);
  Tensor w = Tensor::RandomNormal({static_cast<int64_t>(idx.size()), 5},
                                  &wrng);
  auto report = ad::GradCheck(
      [&] {
        return ad::SumAll(
            ad::Mul(ad::GatherRows(table, idx), ad::Var::Constant(w)));
      },
      {table});
  EXPECT_TRUE(report.Accept(2e-2, 2e-3))
      << "rel=" << report.max_rel_err << " abs=" << report.max_abs_err
      << " at " << report.worst;
}

// End-to-end autodiff under the sharded backend: a MatMul + activation
// chain whose backward pass routes through the vector MatMul, the
// translated activation zips, and ReduceSum. Gradcheck's finite
// differences run through the same backend, so this validates the whole
// vectorized path.
TEST(BackendDispatchTest, MatMulActivationGradCheckUnderShardedBackend) {
  ScopedBackend scoped("sharded");
  util::Rng rng(27);
  ad::Var w1 =
      ad::Var::Param(Tensor::RandomNormal({9, 7}, &rng, 0.0f, 0.3f));
  ad::Var w2 =
      ad::Var::Param(Tensor::RandomNormal({7, 5}, &rng, 0.0f, 0.3f));
  Tensor x = Tensor::RandomNormal({11, 9}, &rng);
  auto report = ad::GradCheck(
      [&] {
        ad::Var h = ad::Tanh(ad::MatMul(ad::Var::Constant(x), w1));
        return ad::SumAll(ad::Sigmoid(ad::MatMul(h, w2)));
      },
      {w1, w2});
  EXPECT_TRUE(report.Accept(2e-2, 2e-3))
      << "rel=" << report.max_rel_err << " abs=" << report.max_abs_err
      << " at " << report.worst;
}

}  // namespace
}  // namespace tensor
}  // namespace gnmr
