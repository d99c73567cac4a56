// Forward-op tests for the dense tensor library.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"
#include "src/util/sanitizer.h"

namespace gnmr {
namespace tensor {
namespace {

namespace top = ops;

Tensor T2(OwnedVector<float> v, int64_t n, int64_t m) {
  return Tensor::FromData({n, m}, std::move(v));
}

// ---------------------------------------------------------- construction ----

TEST(TensorTest, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
}

TEST(TensorTest, UninitializedHasShapeAndIsWritable) {
  Tensor t = Tensor::Uninitialized({3, 5});
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(t.numel(), 15);
  EXPECT_TRUE(t.owns_storage());
#if GNMR_ASAN
  // Sanitizer builds poison the elements, so a forgotten write shows.
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_TRUE(std::isnan(t.data()[i]));
#endif
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = static_cast<float>(i);
  EXPECT_EQ(t.at(2, 4), 14.0f);
  EXPECT_EQ(t.SumValue(), 105.0f);
}

TEST(TensorTest, ZeroFillSurvivesARecycledDirtyBuffer) {
  // The allocator may hand the freed buffer straight back; Tensor(shape)
  // must still read +0.0f everywhere, not the old contents (or -0.0f).
  const std::vector<int64_t> shape = {256, 1024};  // 1 MiB
  {
    Tensor dirty = Tensor::Uninitialized(shape);
    dirty.Fill(-0.0f);
    dirty.at(7, 9) = -3.5f;
  }
  Tensor t(shape);
  const float* p = t.data();
  int64_t non_zero = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    non_zero += bits != 0u;
  }
  EXPECT_EQ(non_zero, 0);
}

TEST(TensorTest, FactoryHelpers) {
  EXPECT_EQ(Tensor::Ones({3}).SumValue(), 3.0f);
  EXPECT_EQ(Tensor::Full({2, 2}, 2.5f).SumValue(), 10.0f);
  EXPECT_EQ(Tensor::Scalar(7.0f).numel(), 1);
  EXPECT_EQ(Tensor::Scalar(7.0f).at(0), 7.0f);
}

TEST(TensorTest, FromDataTakesOwnership) {
  Tensor t = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
}

TEST(TensorTest, RandomNormalStatistics) {
  util::Rng rng(5);
  Tensor t = Tensor::RandomNormal({200, 50}, &rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.MeanValue(), 1.0f, 0.05f);
}

TEST(TensorTest, RandomUniformBounds) {
  util::Rng rng(5);
  Tensor t = Tensor::RandomUniform({100, 10}, &rng, -1.0f, 1.0f);
  EXPECT_GE(t.MinValue(), -1.0f);
  EXPECT_LT(t.MaxValue(), 1.0f);
}

TEST(TensorTest, ReshapedPreservesData) {
  Tensor t = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.at(0, 1), 2.0f);
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t = Tensor::Ones({2, 2});
  Tensor c = t.Clone();
  c.at(0, 0) = 5.0f;
  EXPECT_EQ(t.at(0, 0), 1.0f);
}

TEST(TensorTest, Rank3Access) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t.at(1, 2, 3), 9.0f);
  EXPECT_EQ(t.numel(), 24);
}

TEST(TensorTest, ReductionHelpers) {
  Tensor t = T2({1, -2, 3, 4}, 2, 2);
  EXPECT_EQ(t.SumValue(), 6.0f);
  EXPECT_EQ(t.MeanValue(), 1.5f);
  EXPECT_EQ(t.MaxValue(), 4.0f);
  EXPECT_EQ(t.MinValue(), -2.0f);
  EXPECT_NEAR(t.L2Norm(), std::sqrt(30.0f), 1e-5f);
}

TEST(TensorTest, HasNonFiniteDetectsNanAndInf) {
  Tensor t = Tensor::Ones({2, 2});
  EXPECT_FALSE(t.HasNonFinite());
  t.at(0, 1) = std::nanf("");
  EXPECT_TRUE(t.HasNonFinite());
  t.at(0, 1) = INFINITY;
  EXPECT_TRUE(t.HasNonFinite());
}

TEST(TensorDeathTest, ShapeViolationsAbort) {
  EXPECT_DEATH(Tensor({0, 2}), "positive");
  EXPECT_DEATH(Tensor::FromData({2, 2}, {1.0f}), "");
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(2, 0), "");
}

// ----------------------------------------------------------------- views ----

TEST(TensorViewTest, FromViewReadsExternalMemory) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor v = Tensor::FromView({2, 3}, backing->data(), backing);
  EXPECT_FALSE(v.owns_storage());
  EXPECT_EQ(v.numel(), 6);
  EXPECT_EQ(std::as_const(v).data(), backing->data());  // zero-copy
  EXPECT_FLOAT_EQ(std::as_const(v).at(1, 2), 6.0f);
  EXPECT_FLOAT_EQ(v.SumValue(), 21.0f);
  EXPECT_FLOAT_EQ(v.MaxValue(), 6.0f);
}

TEST(TensorViewTest, KeepaliveOutlivesEveryCopy) {
  std::weak_ptr<std::vector<float>> observer;
  Tensor copy;
  {
    auto backing =
        std::make_shared<std::vector<float>>(std::vector<float>{7.0f, 8.0f});
    observer = backing;
    Tensor v = Tensor::FromView({2}, backing->data(), backing);
    copy = v.Clone();  // O(1); shares the keepalive
  }
  // The original handle and view are gone; the copy still pins the memory.
  EXPECT_FALSE(observer.expired());
  EXPECT_FLOAT_EQ(std::as_const(copy).at(1), 8.0f);
  copy = Tensor();
  EXPECT_TRUE(observer.expired());
}

TEST(TensorViewTest, ReshapedViewSharesBuffer) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  Tensor v = Tensor::FromView({2, 2}, backing->data(), backing);
  Tensor r = v.Reshaped({4});
  EXPECT_FALSE(r.owns_storage());
  EXPECT_EQ(std::as_const(r).data(), backing->data());
  EXPECT_FLOAT_EQ(std::as_const(r).at(3), 4.0f);
}

TEST(TensorViewTest, OwnedCopyDetachesFromView) {
  auto backing =
      std::make_shared<std::vector<float>>(std::vector<float>{1.0f, 2.0f});
  Tensor v = Tensor::FromView({2}, backing->data(), backing);
  Tensor owned = v.OwnedCopy();
  EXPECT_TRUE(owned.owns_storage());
  EXPECT_NE(std::as_const(owned).data(), backing->data());
  owned.at(0) = 9.0f;  // mutable again
  EXPECT_FLOAT_EQ(std::as_const(v).at(0), 1.0f);
}

TEST(TensorViewDeathTest, MutationAborts) {
  auto backing =
      std::make_shared<std::vector<float>>(std::vector<float>{1.0f, 2.0f});
  Tensor v = Tensor::FromView({2}, backing->data(), backing);
  EXPECT_DEATH(v.Fill(0.0f), "view");
  EXPECT_DEATH(v.data(), "view");
  EXPECT_DEATH(v.at(0) = 1.0f, "view");
}

// ------------------------------------------------------------ arithmetic ----

TEST(OpsTest, AddSameShape) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor b = T2({10, 20, 30, 40}, 2, 2);
  Tensor c = top::Add(a, b);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 1), 44.0f);
}

TEST(OpsTest, SubMulDiv) {
  Tensor a = T2({4, 9, 16, 25}, 2, 2);
  Tensor b = T2({2, 3, 4, 5}, 2, 2);
  EXPECT_EQ(top::Sub(a, b).at(1, 1), 20.0f);
  EXPECT_EQ(top::Mul(a, b).at(0, 1), 27.0f);
  EXPECT_EQ(top::Div(a, b).at(1, 0), 4.0f);
}

TEST(OpsTest, BroadcastRowVector) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor row = Tensor::FromData({1, 3}, {10, 20, 30});
  Tensor c = top::Add(a, row);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 2), 36.0f);
}

TEST(OpsTest, BroadcastRank1AsRow) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor row = Tensor::FromData({3}, {10, 20, 30});
  Tensor c = top::Mul(a, row);
  EXPECT_EQ(c.at(1, 0), 40.0f);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 3}));
}

TEST(OpsTest, BroadcastColVector) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor col = Tensor::FromData({2, 1}, {10, 100});
  Tensor c = top::Mul(a, col);
  EXPECT_EQ(c.at(0, 2), 30.0f);
  EXPECT_EQ(c.at(1, 0), 400.0f);
}

TEST(OpsTest, BroadcastScalar) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor s = Tensor::Scalar(5.0f);
  EXPECT_EQ(top::Add(a, s).at(1, 1), 9.0f);
  // Scalar on the left too.
  EXPECT_EQ(top::Sub(s, a).at(0, 0), 4.0f);
}

TEST(OpsTest, ScalarHelpers) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  EXPECT_EQ(top::AddScalar(a, 1.0f).at(0, 0), 2.0f);
  EXPECT_EQ(top::MulScalar(a, -2.0f).at(1, 1), -8.0f);
  EXPECT_EQ(top::Neg(a).at(0, 1), -2.0f);
}

TEST(OpsDeathTest, IncompatibleBroadcastAborts) {
  Tensor a({2, 3});
  Tensor b({2, 4});
  EXPECT_DEATH(top::Add(a, b), "incompatible");
}

struct BroadcastCase {
  std::vector<int64_t> a, b, expected;
};

class BroadcastShapeTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastShapeTest, ShapeInference) {
  const auto& p = GetParam();
  EXPECT_EQ(top::BroadcastShapes(p.a, p.b), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastShapeTest,
    ::testing::Values(BroadcastCase{{2, 3}, {2, 3}, {2, 3}},
                      BroadcastCase{{2, 3}, {1, 3}, {2, 3}},
                      BroadcastCase{{2, 3}, {3}, {2, 3}},
                      BroadcastCase{{2, 3}, {2, 1}, {2, 3}},
                      BroadcastCase{{2, 3}, {1}, {2, 3}},
                      BroadcastCase{{1}, {5}, {5}},
                      BroadcastCase{{4, 1}, {1, 7}, {4, 7}}));

// --------------------------------------------------------- ReduceToShape ----

TEST(ReduceToShapeTest, IdentityWhenSameShape) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor r = top::ReduceToShape(a, {2, 2});
  EXPECT_EQ(r.at(1, 0), 3.0f);
}

TEST(ReduceToShapeTest, SumOverRows) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = top::ReduceToShape(a, {1, 3});
  EXPECT_EQ(r.at(0, 0), 5.0f);
  EXPECT_EQ(r.at(0, 2), 9.0f);
}

TEST(ReduceToShapeTest, SumOverCols) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = top::ReduceToShape(a, {2, 1});
  EXPECT_EQ(r.at(0, 0), 6.0f);
  EXPECT_EQ(r.at(1, 0), 15.0f);
}

TEST(ReduceToShapeTest, SumToScalar) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = top::ReduceToShape(a, {1});
  EXPECT_EQ(r.numel(), 1);
  EXPECT_EQ(r.at(0), 21.0f);
}

TEST(ReduceToShapeTest, Rank1ToRank1Scalar) {
  Tensor a = Tensor::FromData({4}, {1, 2, 3, 4});
  Tensor r = top::ReduceToShape(a, {1});
  EXPECT_EQ(r.at(0), 10.0f);
}

TEST(ReduceToShapeTest, ReduceToRank1Row) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = top::ReduceToShape(a, {3});
  EXPECT_EQ(r.rank(), 1);
  EXPECT_EQ(r.at(1), 7.0f);
}

// --------------------------------------------------------- linear algebra ----

TEST(OpsTest, MatMulMatchesManual) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = T2({7, 8, 9, 10, 11, 12}, 3, 2);
  Tensor c = top::MatMul(a, b);
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  util::Rng rng(3);
  Tensor a = Tensor::RandomNormal({4, 4}, &rng);
  Tensor eye({4, 4});
  for (int64_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Tensor c = top::MatMul(a, eye);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(c.at(i, j), a.at(i, j));
}

TEST(OpsDeathTest, MatMulShapeMismatchAborts) {
  EXPECT_DEATH(top::MatMul(Tensor({2, 3}), Tensor({2, 3})), "");
}

TEST(OpsTest, TransposeRoundTrip) {
  util::Rng rng(9);
  Tensor a = Tensor::RandomNormal({3, 5}, &rng);
  Tensor t = top::Transpose(a);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 3);
  Tensor tt = top::Transpose(t);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(tt.at(i, j), a.at(i, j));
}

// ------------------------------------------------------ elementwise unary ----

TEST(OpsTest, ReluClampsNegatives) {
  Tensor a = T2({-1, 0, 2, -3}, 2, 2);
  Tensor r = top::Relu(a);
  EXPECT_EQ(r.at(0, 0), 0.0f);
  EXPECT_EQ(r.at(0, 1), 0.0f);
  EXPECT_EQ(r.at(1, 0), 2.0f);
}

TEST(OpsTest, LeakyReluSlope) {
  Tensor a = T2({-10, 10, -1, 1}, 2, 2);
  Tensor r = top::LeakyRelu(a, 0.1f);
  EXPECT_FLOAT_EQ(r.at(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(r.at(0, 1), 10.0f);
}

TEST(OpsTest, SigmoidValuesAndStability) {
  Tensor a = T2({0, 100, -100, 1}, 2, 2);
  Tensor r = top::Sigmoid(a);
  EXPECT_FLOAT_EQ(r.at(0, 0), 0.5f);
  EXPECT_NEAR(r.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(r.at(1, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(r.at(1, 1), 0.731058f, 1e-5f);
  EXPECT_FALSE(r.HasNonFinite());
}

TEST(OpsTest, TanhExpLogSqrtSquare) {
  Tensor a = T2({1, 4, 9, 16}, 2, 2);
  EXPECT_NEAR(top::Tanh(a).at(0, 0), std::tanh(1.0f), 1e-6f);
  EXPECT_NEAR(top::Exp(a).at(0, 0), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(top::Log(a).at(0, 1), std::log(4.0f), 1e-6f);
  EXPECT_FLOAT_EQ(top::Sqrt(a).at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(top::Square(a).at(0, 1), 16.0f);
}

TEST(OpsTest, LogClampsAtEps) {
  Tensor a = T2({0, -5, 1, 2}, 2, 2);
  Tensor r = top::Log(a, 1e-6f);
  EXPECT_NEAR(r.at(0, 0), std::log(1e-6f), 1e-3f);
  EXPECT_NEAR(r.at(0, 1), std::log(1e-6f), 1e-3f);
  EXPECT_FALSE(r.HasNonFinite());
}

TEST(OpsTest, SoftplusStableForLargeInputs) {
  Tensor a = T2({-100, 100, 0, 1}, 2, 2);
  Tensor r = top::Softplus(a);
  EXPECT_NEAR(r.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(r.at(0, 1), 100.0f, 1e-4f);
  EXPECT_NEAR(r.at(1, 0), std::log(2.0f), 1e-6f);
  EXPECT_FALSE(r.HasNonFinite());
}

// ----------------------------------------------------------------- softmax ----

TEST(OpsTest, SoftmaxRowsSumToOne) {
  util::Rng rng(13);
  Tensor a = Tensor::RandomNormal({5, 7}, &rng);
  Tensor s = top::SoftmaxRows(a);
  for (int64_t i = 0; i < 5; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      sum += s.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxMatchesManual) {
  Tensor a = T2({0, std::log(3.0f)}, 1, 2);
  Tensor s = top::SoftmaxRows(a);
  EXPECT_NEAR(s.at(0, 0), 0.25f, 1e-6f);
  EXPECT_NEAR(s.at(0, 1), 0.75f, 1e-6f);
}

TEST(OpsTest, SoftmaxStableWithLargeLogits) {
  Tensor a = T2({1000, 1001, -1000, 0}, 2, 2);
  Tensor s = top::SoftmaxRows(a);
  EXPECT_FALSE(s.HasNonFinite());
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0f, 1e-5f);
}

TEST(OpsTest, LogSoftmaxConsistentWithSoftmax) {
  util::Rng rng(17);
  Tensor a = Tensor::RandomNormal({4, 6}, &rng);
  Tensor ls = top::LogSoftmaxRows(a);
  Tensor s = top::SoftmaxRows(a);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 6; ++j)
      EXPECT_NEAR(std::exp(ls.at(i, j)), s.at(i, j), 1e-5f);
}

// -------------------------------------------------------------- reductions ----

TEST(OpsTest, SumAxisBoth) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor s0 = top::SumAxis(a, 0);
  EXPECT_EQ(s0.shape(), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(s0.at(0, 1), 7.0f);
  Tensor s1 = top::SumAxis(a, 1);
  EXPECT_EQ(s1.shape(), (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(s1.at(1, 0), 15.0f);
}

TEST(OpsTest, MeanAxisBoth) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_FLOAT_EQ(top::MeanAxis(a, 0).at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(top::MeanAxis(a, 1).at(0, 0), 2.0f);
}

TEST(OpsTest, SumAllMeanAll) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  EXPECT_EQ(top::SumAll(a).at(0), 10.0f);
  EXPECT_EQ(top::MeanAll(a).at(0), 2.5f);
}

// ------------------------------------------------------- shape manipulation ----

TEST(OpsTest, ConcatColsAndSliceRoundTrip) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor b = T2({5, 6, 7, 8, 9, 10}, 2, 3);
  Tensor c = top::ConcatCols({&a, &b});
  EXPECT_EQ(c.cols(), 5);
  EXPECT_EQ(c.at(0, 2), 5.0f);
  EXPECT_EQ(c.at(1, 4), 10.0f);
  Tensor back = top::SliceCols(c, 2, 3);
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(back.at(i, j), b.at(i, j));
}

TEST(OpsTest, ConcatRowsAndSliceRoundTrip) {
  Tensor a = T2({1, 2}, 1, 2);
  Tensor b = T2({3, 4, 5, 6}, 2, 2);
  Tensor c = top::ConcatRows({&a, &b});
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.at(2, 1), 6.0f);
  Tensor back = top::SliceRows(c, 1, 2);
  EXPECT_EQ(back.at(0, 0), 3.0f);
}

// ------------------------------------------------------------ indexed ops ----

TEST(OpsTest, GatherRowsBasic) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor g = top::GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 0), 5.0f);
}

TEST(OpsTest, ScatterAddAccumulatesDuplicates) {
  Tensor target({3, 2});
  Tensor src = T2({1, 1, 2, 2, 4, 4}, 3, 2);
  top::ScatterAddRows(&target, {1, 1, 0}, src);
  EXPECT_EQ(target.at(1, 0), 3.0f);  // 1 + 2
  EXPECT_EQ(target.at(0, 0), 4.0f);
  EXPECT_EQ(target.at(2, 0), 0.0f);
}

TEST(OpsDeathTest, GatherOutOfRangeAborts) {
  Tensor a({2, 2});
  EXPECT_DEATH(top::GatherRows(a, {5}), "");
}

TEST(OpsTest, RowDotMatchesManual) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor b = T2({5, 6, 7, 8}, 2, 2);
  Tensor d = top::RowDot(a, b);
  EXPECT_EQ(d.at(0, 0), 17.0f);
  EXPECT_EQ(d.at(1, 0), 53.0f);
}

// A parameterised consistency sweep: (A*B)^T == B^T * A^T for random shapes.
class MatMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulPropertyTest, TransposeIdentity) {
  auto [n, k, m] = GetParam();
  util::Rng rng(n * 100 + k * 10 + m);
  Tensor a = Tensor::RandomNormal({n, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, m}, &rng);
  Tensor left = top::Transpose(top::MatMul(a, b));
  Tensor right = top::MatMul(top::Transpose(b), top::Transpose(a));
  ASSERT_TRUE(left.SameShape(right));
  for (int64_t i = 0; i < left.numel(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulPropertyTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(7, 5, 3),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(1, 32, 8)));

}  // namespace
}  // namespace tensor
}  // namespace gnmr
