// Parity tests of the kernel backends (backend.h): "sharded" must match
// the SerialBackend reference bit-for-bit on every kernel
// (MatMul/SpMM/Gather/Scatter/RowDot/map/zip, the fixed-chunk ReduceSum
// and the serving scans), on the AVX2 range kernels and on the serial
// ones. There is no sanctioned slack: the whole build compiles with
// -ffp-contract=off, so the vector tiles may not fuse multiply-adds the
// serial reference keeps separate — even under -march=native.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/tensor/ad_ops.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/backend.h"
#include "src/tensor/backend_simd.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/quantize.h"
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
  // The registered instance runs the vector kernels exactly when the
  // build has them and cpuid reports AVX2+FMA (the vector table is only
  // looked up once cpuid allows it).
  const util::CpuFeatures& cpu = util::HostCpuFeatures();
  const bool vector_expected =
      cpu.avx2 && cpu.fma && simd::NativeSimdKernels() != nullptr;
  EXPECT_EQ(ShardedUsesVectorKernelsForTest(), vector_expected);
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

// --------------------------------------------------------------- quantizer --

TEST(QuantizeTest, RoundTripDeterministicAndBounded) {
  util::Rng rng(32);
  const int64_t n = 64, m = 37;
  Tensor rows = Tensor::RandomNormal({n, m}, &rng);
  std::vector<int8_t> codes(n * m), codes2(n * m);
  std::vector<float> scales(n), scales2(n);
  quant::QuantizeRowsI8(rows.data(), n, m, codes.data(), scales.data());
  quant::QuantizeRowsI8(rows.data(), n, m, codes2.data(), scales2.data());
  ASSERT_EQ(codes, codes2) << "quantization must be deterministic";
  ASSERT_EQ(scales, scales2);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GT(scales[static_cast<size_t>(i)], 0.0f);
    float maxabs = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      const int8_t c = codes[static_cast<size_t>(i * m + j)];
      // The +-127 clamp is the precondition of the AVX2 maddubs kernel.
      ASSERT_GE(c, -kI8QuantMaxCode);
      ASSERT_LE(c, kI8QuantMaxCode);
      // Round trip within half a quantization step.
      EXPECT_NEAR(static_cast<float>(c) * scales[static_cast<size_t>(i)],
                  rows.at(i, j), 0.51f * scales[static_cast<size_t>(i)]);
      maxabs = std::max(maxabs, std::fabs(rows.at(i, j)));
    }
    EXPECT_EQ(scales[static_cast<size_t>(i)],
              maxabs / static_cast<float>(kI8QuantMaxCode));
  }
  // Zero row: scale 0, all-zero codes (the documented degenerate case).
  std::vector<float> zero_row(m, 0.0f);
  std::vector<int8_t> zero_codes(m, 42);
  EXPECT_EQ(quant::QuantizeRowI8(zero_row.data(), m, zero_codes.data()), 0.0f);
  for (int8_t c : zero_codes) EXPECT_EQ(c, 0);
}

TEST(BackendParityTest, I8QueryDotAllBackendsExact) {
  util::Rng rng(33);
  // Widths across the AVX2 32-lane kernel: sub-vector, exact multiples,
  // and ragged tails; plus an extreme row to prove saturation-safety at
  // the +-127 code bound.
  for (int64_t m : {int64_t{1}, int64_t{31}, int64_t{32}, int64_t{33},
                    int64_t{64}, int64_t{100}}) {
    const int64_t n = 129;
    std::vector<int8_t> q(static_cast<size_t>(m));
    std::vector<int8_t> codes(static_cast<size_t>(n * m));
    for (auto& v : q) {
      v = static_cast<int8_t>(rng.UniformInt(-kI8QuantMaxCode,
                                             kI8QuantMaxCode));
    }
    for (auto& v : codes) {
      v = static_cast<int8_t>(rng.UniformInt(-kI8QuantMaxCode,
                                             kI8QuantMaxCode));
    }
    // Row 0: worst case +-127 everywhere (alternating signs).
    for (int64_t j = 0; j < m; ++j) {
      q[static_cast<size_t>(j)] =
          static_cast<int8_t>((j % 2 == 0) ? kI8QuantMaxCode
                                           : -kI8QuantMaxCode);
      codes[static_cast<size_t>(j)] = static_cast<int8_t>(kI8QuantMaxCode);
    }
    std::vector<int32_t> ref(static_cast<size_t>(n));
    std::vector<int32_t> got(static_cast<size_t>(n));
    FindBackend("serial")->I8QueryDot(q.data(), codes.data(), ref.data(), n,
                                      m);
    // Serial must equal the quant::I8Dot reference exactly.
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[static_cast<size_t>(i)],
                quant::I8Dot(q.data(), codes.data() + i * m, m));
    }
    for (const Variant& v : Variants()) {
      v.backend->I8QueryDot(q.data(), codes.data(), got.data(), n, m);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref[static_cast<size_t>(i)], got[static_cast<size_t>(i)])
            << v.tag << " i8 querydot m=" << m << " row " << i;
      }
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

// --------------------------------------------------------- ops-level dispatch --

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
