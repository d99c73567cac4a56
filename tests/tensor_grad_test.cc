// Finite-difference verification of every autodiff op, plus structural
// tests of the tape (accumulation, reuse, no-grad paths).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "src/tensor/ad_ops.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/backend.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace gnmr {
namespace ad {
namespace {

using tensor::CsrMatrix;
using tensor::Tensor;

constexpr double kRelTol = 2e-2;
constexpr double kAbsTol = 2e-3;

// Scalarises an op output with fixed random weights so that every output
// element contributes a distinct gradient.
Var WeightedSum(const Var& v, uint64_t seed = 99) {
  util::Rng rng(seed);
  Tensor w = Tensor::RandomNormal(v.value().shape(), &rng);
  return SumAll(Mul(v, Var::Constant(w)));
}

Var RandParam(std::vector<int64_t> shape, uint64_t seed, float scale = 1.0f) {
  util::Rng rng(seed);
  return Var::Param(Tensor::RandomNormal(std::move(shape), &rng, 0.0f, scale));
}

void ExpectGradOk(const std::function<Var()>& loss_fn,
                  std::vector<Var> params) {
  auto report = GradCheck(loss_fn, std::move(params));
  EXPECT_TRUE(report.Accept(kRelTol, kAbsTol))
      << "rel=" << report.max_rel_err << " abs=" << report.max_abs_err
      << " at " << report.worst;
}

// -------------------------------------------------------- binary broadcast ----

TEST(GradTest, AddSameShape) {
  Var a = RandParam({3, 4}, 1), b = RandParam({3, 4}, 2);
  ExpectGradOk([&] { return WeightedSum(Add(a, b)); }, {a, b});
}

TEST(GradTest, AddBroadcastRow) {
  Var a = RandParam({3, 4}, 3), b = RandParam({1, 4}, 4);
  ExpectGradOk([&] { return WeightedSum(Add(a, b)); }, {a, b});
}

TEST(GradTest, AddBroadcastCol) {
  Var a = RandParam({3, 4}, 5), b = RandParam({3, 1}, 6);
  ExpectGradOk([&] { return WeightedSum(Add(a, b)); }, {a, b});
}

TEST(GradTest, AddBroadcastScalar) {
  Var a = RandParam({3, 4}, 7), b = RandParam({1}, 8);
  ExpectGradOk([&] { return WeightedSum(Add(a, b)); }, {a, b});
}

TEST(GradTest, SubBroadcast) {
  Var a = RandParam({2, 5}, 9), b = RandParam({1, 5}, 10);
  ExpectGradOk([&] { return WeightedSum(Sub(a, b)); }, {a, b});
}

TEST(GradTest, MulBroadcast) {
  Var a = RandParam({4, 3}, 11), b = RandParam({4, 1}, 12);
  ExpectGradOk([&] { return WeightedSum(Mul(a, b)); }, {a, b});
}

TEST(GradTest, DivAwayFromZero) {
  util::Rng rng(13);
  Var a = RandParam({3, 3}, 14);
  // Denominator bounded away from 0 for a stable check.
  Tensor bt = Tensor::RandomUniform({3, 3}, &rng, 1.0f, 2.0f);
  Var b = Var::Param(bt);
  ExpectGradOk([&] { return WeightedSum(Div(a, b)); }, {a, b});
}

// Every binary op against a [N,1] gate and a [1,M] bias row, in both
// operand orders, under both kernel backends: the forward runs the
// backend's BroadcastZip and the backward its RowSums / ColSums.
TEST(GradTest, BinaryOpsAgainstColumnAndRowOperandsBothOrders) {
  using BinaryOp = Var (*)(const Var&, const Var&);
  const struct {
    const char* name;
    BinaryOp op;
  } ops[] = {{"add", &Add}, {"sub", &Sub}, {"mul", &Mul}, {"div", &Div}};
  const std::vector<std::vector<int64_t>> small_shapes = {{5, 1}, {1, 3}};
  for (const char* backend : {"serial", "sharded"}) {
    tensor::ScopedBackend scoped(backend);
    for (const auto& op : ops) {
      for (const auto& shape : small_shapes) {
        for (bool small_first : {false, true}) {
          util::Rng rng(50);
          Var full = Var::Param(
              Tensor::RandomUniform({5, 3}, &rng, 1.0f, 2.0f));
          Var small =
              Var::Param(Tensor::RandomUniform(shape, &rng, 1.0f, 2.0f));
          SCOPED_TRACE(std::string(backend) + " " + op.name + " " +
                       small.value().ShapeString() +
                       (small_first ? " first" : " second"));
          ExpectGradOk(
              [&] {
                return WeightedSum(small_first ? op.op(small, full)
                                               : op.op(full, small));
              },
              {full, small});
        }
      }
    }
  }
}

TEST(GradTest, ScalarOps) {
  Var a = RandParam({2, 3}, 15);
  ExpectGradOk([&] { return WeightedSum(AddScalar(a, 2.5f)); }, {a});
  ExpectGradOk([&] { return WeightedSum(MulScalar(a, -1.5f)); }, {a});
  ExpectGradOk([&] { return WeightedSum(Neg(a)); }, {a});
}

// ---------------------------------------------------------- linear algebra ----

TEST(GradTest, MatMulBothSides) {
  Var a = RandParam({3, 4}, 16), b = RandParam({4, 2}, 17);
  ExpectGradOk([&] { return WeightedSum(MatMul(a, b)); }, {a, b});
}

TEST(GradTest, MatMulChain) {
  Var a = RandParam({2, 3}, 18), b = RandParam({3, 3}, 19),
      c = RandParam({3, 2}, 20);
  ExpectGradOk([&] { return WeightedSum(MatMul(MatMul(a, b), c)); },
               {a, b, c});
}

TEST(GradTest, Transpose) {
  Var a = RandParam({3, 5}, 21);
  ExpectGradOk([&] { return WeightedSum(Transpose(a)); }, {a});
}

TEST(GradTest, Spmm) {
  util::Rng rng(22);
  std::vector<tensor::Coo> entries;
  for (int64_t i = 0; i < 6; ++i)
    for (int64_t j = 0; j < 5; ++j)
      if (rng.Bernoulli(0.4)) entries.push_back({i, j, rng.Normal()});
  CsrMatrix a = CsrMatrix::FromCoo(6, 5, entries);
  CsrMatrix at = a.Transposed();
  Var x = RandParam({5, 3}, 23);
  ExpectGradOk([&] { return WeightedSum(Spmm(&a, &at, x)); }, {x});
}

// ------------------------------------------------------------------- unary ----

TEST(GradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so the finite difference is well-defined.
  util::Rng rng(24);
  Tensor t = Tensor::RandomNormal({4, 4}, &rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fabs(t.data()[i]) < 0.1f) t.data()[i] = 0.5f;
  }
  Var a = Var::Param(t);
  ExpectGradOk([&] { return WeightedSum(Relu(a)); }, {a});
}

TEST(GradTest, LeakyReluAwayFromKink) {
  util::Rng rng(25);
  Tensor t = Tensor::RandomNormal({4, 4}, &rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fabs(t.data()[i]) < 0.1f) t.data()[i] = -0.5f;
  }
  Var a = Var::Param(t);
  ExpectGradOk([&] { return WeightedSum(LeakyRelu(a, 0.2f)); }, {a});
}

TEST(GradTest, SigmoidTanhExp) {
  Var a = RandParam({3, 3}, 26);
  ExpectGradOk([&] { return WeightedSum(Sigmoid(a)); }, {a});
  ExpectGradOk([&] { return WeightedSum(Tanh(a)); }, {a});
  ExpectGradOk([&] { return WeightedSum(Exp(a)); }, {a});
}

TEST(GradTest, LogPositiveInputs) {
  util::Rng rng(27);
  Var a = Var::Param(Tensor::RandomUniform({3, 3}, &rng, 0.5f, 2.0f));
  ExpectGradOk([&] { return WeightedSum(Log(a)); }, {a});
}

TEST(GradTest, SqrtPositiveInputs) {
  util::Rng rng(28);
  Var a = Var::Param(Tensor::RandomUniform({3, 3}, &rng, 0.5f, 2.0f));
  ExpectGradOk([&] { return WeightedSum(Sqrt(a)); }, {a});
}

TEST(GradTest, SquareSoftplus) {
  Var a = RandParam({3, 3}, 29);
  ExpectGradOk([&] { return WeightedSum(Square(a)); }, {a});
  ExpectGradOk([&] { return WeightedSum(Softplus(a)); }, {a});
}

// ----------------------------------------------------------------- softmax ----

TEST(GradTest, SoftmaxRows) {
  Var a = RandParam({4, 5}, 30);
  ExpectGradOk([&] { return WeightedSum(SoftmaxRows(a)); }, {a});
}

TEST(GradTest, LogSoftmaxRows) {
  Var a = RandParam({4, 5}, 31);
  ExpectGradOk([&] { return WeightedSum(LogSoftmaxRows(a)); }, {a});
}

// -------------------------------------------------------------- reductions ----

TEST(GradTest, Reductions) {
  Var a = RandParam({3, 4}, 32);
  ExpectGradOk([&] { return SumAll(a); }, {a});
  ExpectGradOk([&] { return MeanAll(a); }, {a});
  ExpectGradOk([&] { return WeightedSum(SumAxis(a, 0)); }, {a});
  ExpectGradOk([&] { return WeightedSum(SumAxis(a, 1)); }, {a});
  ExpectGradOk([&] { return WeightedSum(MeanAxis(a, 0)); }, {a});
  ExpectGradOk([&] { return WeightedSum(MeanAxis(a, 1)); }, {a});
}

// ------------------------------------------------------- shape manipulation ----

TEST(GradTest, ConcatColsThreeParts) {
  Var a = RandParam({3, 2}, 33), b = RandParam({3, 4}, 34),
      c = RandParam({3, 1}, 35);
  ExpectGradOk([&] { return WeightedSum(ConcatCols({a, b, c})); }, {a, b, c});
}

TEST(GradTest, ConcatRowsTwoParts) {
  Var a = RandParam({2, 3}, 36), b = RandParam({4, 3}, 37);
  ExpectGradOk([&] { return WeightedSum(ConcatRows({a, b})); }, {a, b});
}

TEST(GradTest, SliceColsAndRows) {
  Var a = RandParam({4, 6}, 38);
  ExpectGradOk([&] { return WeightedSum(SliceCols(a, 1, 3)); }, {a});
  ExpectGradOk([&] { return WeightedSum(SliceRows(a, 2, 2)); }, {a});
}

TEST(GradTest, Reshape) {
  Var a = RandParam({4, 6}, 39);
  ExpectGradOk([&] { return WeightedSum(Reshape(a, {6, 4})); }, {a});
}

// ----------------------------------------------------------------- indexed ----

TEST(GradTest, GatherRowsWithDuplicates) {
  Var table = RandParam({5, 3}, 40);
  std::vector<int64_t> idx = {0, 2, 2, 4, 0};
  ExpectGradOk([&] { return WeightedSum(GatherRows(table, idx)); }, {table});
}

TEST(GradTest, RowDot) {
  Var a = RandParam({4, 3}, 41), b = RandParam({4, 3}, 42);
  ExpectGradOk([&] { return WeightedSum(RowDot(a, b)); }, {a, b});
}

// ------------------------------------------------------------------ losses ----

TEST(GradTest, PairwiseHingeLossMixedActivity) {
  // Margin active for some pairs and inactive for others; keep all pairs
  // away from the hinge kink for the finite-difference check.
  Var pos = Var::Param(Tensor::FromData({4, 1}, {2.0f, 0.1f, -1.0f, 3.0f}));
  Var neg = Var::Param(Tensor::FromData({4, 1}, {0.0f, 0.6f, 0.5f, -2.0f}));
  ExpectGradOk([&] { return PairwiseHingeLoss(pos, neg, 1.0f); }, {pos, neg});
}

TEST(GradTest, BprLoss) {
  Var pos = RandParam({5, 1}, 43), neg = RandParam({5, 1}, 44);
  ExpectGradOk([&] { return BprLoss(pos, neg); }, {pos, neg});
}

TEST(GradTest, BceWithLogits) {
  Var logits = RandParam({4, 2}, 45);
  util::Rng rng(46);
  Tensor targets({4, 2});
  for (int64_t i = 0; i < targets.numel(); ++i) {
    targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  Var t = Var::Constant(targets);
  ExpectGradOk([&] { return BceWithLogitsLoss(logits, t); }, {logits});
}

TEST(GradTest, MseLoss) {
  Var pred = RandParam({3, 3}, 47);
  Var target = Var::Constant(Tensor::Ones({3, 3}));
  ExpectGradOk([&] { return MseLoss(pred, target); }, {pred});
}

// ----------------------------------------------------------- tape structure ----

TEST(TapeTest, ReusedVarAccumulatesGradient) {
  // f(x) = sum(x*x + 3x); df/dx = 2x + 3.
  Var x = Var::Param(Tensor::FromData({3}, {1.0f, -2.0f, 0.5f}));
  Var loss = SumAll(Add(Mul(x, x), MulScalar(x, 3.0f)));
  Backward(loss);
  ASSERT_TRUE(x.has_grad());
  EXPECT_NEAR(x.grad().at(0), 5.0f, 1e-5f);
  EXPECT_NEAR(x.grad().at(1), -1.0f, 1e-5f);
  EXPECT_NEAR(x.grad().at(2), 4.0f, 1e-5f);
}

TEST(TapeTest, GradsAccumulateAcrossBackwardCalls) {
  Var x = Var::Param(Tensor::FromData({1}, {2.0f}));
  Var l1 = SumAll(Mul(x, x));
  Backward(l1);
  EXPECT_NEAR(x.grad().at(0), 4.0f, 1e-5f);
  Var l2 = SumAll(Mul(x, x));
  Backward(l2);
  EXPECT_NEAR(x.grad().at(0), 8.0f, 1e-5f);  // accumulated
  x.ZeroGrad();
  EXPECT_NEAR(x.grad().at(0), 0.0f, 1e-9f);
}

TEST(TapeTest, ConstantsReceiveNoGradient) {
  Var x = Var::Param(Tensor::Ones({2}));
  Var c = Var::Constant(Tensor::Ones({2}));
  Var loss = SumAll(Mul(x, c));
  Backward(loss);
  EXPECT_TRUE(x.has_grad());
  EXPECT_FALSE(c.has_grad());
}

TEST(TapeTest, PureConstantGraphSkipsBackward) {
  Var a = Var::Constant(Tensor::Ones({2, 2}));
  Var out = Relu(MatMul(a, a));
  EXPECT_FALSE(out.requires_grad());
  // Backward on it is a no-op rather than an error.
  Var s = SumAll(out);
  Backward(s);
  EXPECT_FALSE(a.has_grad());
}

TEST(TapeTest, DiamondDependencyCorrectGradient) {
  // y = x + x (two paths); dy/dx = 2.
  Var x = Var::Param(Tensor::FromData({1}, {3.0f}));
  Var loss = SumAll(Add(x, x));
  Backward(loss);
  EXPECT_NEAR(x.grad().at(0), 2.0f, 1e-6f);
}

TEST(TapeTest, DeepChainGradient) {
  // y = ((((x*1.5)*1.5)...)*1.5) 10 times; dy/dx = 1.5^10.
  Var x = Var::Param(Tensor::FromData({1}, {1.0f}));
  Var v = x;
  for (int i = 0; i < 10; ++i) v = MulScalar(v, 1.5f);
  Backward(SumAll(v));
  EXPECT_NEAR(x.grad().at(0), std::pow(1.5f, 10.0f), 1e-2f);
}

TEST(TapeTest, BackwardWithExplicitSeed) {
  Var x = Var::Param(Tensor::FromData({2}, {1.0f, 2.0f}));
  Var y = Mul(x, x);  // dy_i/dx_i = 2 x_i
  BackwardWithGrad(y, Tensor::FromData({2}, {1.0f, 10.0f}));
  EXPECT_NEAR(x.grad().at(0), 2.0f, 1e-5f);
  EXPECT_NEAR(x.grad().at(1), 40.0f, 1e-5f);
}

TEST(TapeTest, FirstGradientIsAdoptedLaterOnesAdd) {
  Node node;
  node.value = Tensor({2, 2});
  Tensor g = Tensor::FromData({2, 2}, {1.0f, -0.0f, 2.0f, 3.0f});
  const float* storage = g.data();
  node.AccumulateGrad(std::move(g));
  // Moved in, not copied into a zero buffer: same storage, and the -0.0f
  // that zero-plus-add would have turned into +0.0f is kept.
  EXPECT_EQ(node.grad.data(), storage);
  EXPECT_TRUE(std::signbit(node.grad.at(0, 1)));
  node.AccumulateGrad(Tensor::FromData({2, 2}, {1.0f, 1.0f, 1.0f, 1.0f}));
  EXPECT_EQ(node.grad.data(), storage);  // added in place
  EXPECT_EQ(node.grad.at(0, 0), 2.0f);
  EXPECT_EQ(node.grad.at(0, 1), 1.0f);
  EXPECT_EQ(node.grad.at(1, 1), 4.0f);
}

TEST(TapeTest, ViewGradientIsCopiedNeverAdopted) {
  // A read-only view (the storage kind of a memory-mapped tensor) seeds a
  // Reshape's backward. The seed must be copied into owned storage: an
  // adopted view would abort on the next in-place accumulation.
  std::vector<float> backing = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  Tensor seed = Tensor::FromView({3, 2}, backing.data(), nullptr);
  Var x = Var::Param(Tensor::Ones({2, 3}));
  Var y = Reshape(x, {3, 2});
  BackwardWithGrad(y, seed);
  ASSERT_TRUE(y.has_grad() && x.has_grad());
  EXPECT_TRUE(y.grad().owns_storage());
  EXPECT_TRUE(x.grad().owns_storage());
  // The second pass adds into both gradients in place (must not abort).
  // y's gradient is now 2 * seed and is pushed whole into x again, so x
  // holds seed + 2 * seed.
  BackwardWithGrad(y, seed);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(y.grad().data()[i], 2.0f * backing[static_cast<size_t>(i)]);
    EXPECT_EQ(x.grad().data()[i], 3.0f * backing[static_cast<size_t>(i)]);
  }
  // The view's memory was never written.
  EXPECT_EQ(backing, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f}));

  Node node;
  node.value = Tensor({3, 2});
  node.AccumulateGrad(seed);
  EXPECT_TRUE(node.grad.owns_storage());
  EXPECT_NE(node.grad.data(), backing.data());
  node.AccumulateGrad(seed);
  EXPECT_EQ(node.grad.at(2, 1), 12.0f);
}

TEST(TapeTest, SliceColsBackwardAddsIntoItsColumns) {
  Var x = Var::Param(Tensor::Ones({2, 4}));
  // Two slices of the same input: the first allocates the gradient, the
  // second adds into its own columns only.
  Var loss = Add(SumAll(MulScalar(SliceCols(x, 1, 2), 3.0f)),
                 SumAll(MulScalar(SliceCols(x, 2, 2), 5.0f)));
  Backward(loss);
  const float want[4] = {0.0f, 3.0f, 8.0f, 5.0f};
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(x.grad().at(i, j), want[j]) << i << "," << j;
    }
  }
}

TEST(TapeDeathTest, NonScalarBackwardAborts) {
  Var x = Var::Param(Tensor::Ones({2, 2}));
  Var y = Mul(x, x);
  EXPECT_DEATH(Backward(y), "scalar");
}

TEST(DropoutTest, IdentityWhenNotTraining) {
  util::Rng rng(50);
  Var x = Var::Param(Tensor::Ones({10, 10}));
  Var y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(y.value().SumValue(), 100.0f);
}

TEST(DropoutTest, MaskAndScaleStatistics) {
  util::Rng rng(51);
  Var x = Var::Param(Tensor::Ones({100, 100}));
  Var y = Dropout(x, 0.3f, /*training=*/true, &rng);
  // E[output] == input; inverted dropout rescales survivors.
  EXPECT_NEAR(y.value().MeanValue(), 1.0f, 0.05f);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    if (y.value().data()[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.value().numel(), 0.3, 0.03);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(52);
  Var x = Var::Param(Tensor::Ones({20, 20}));
  Var y = Dropout(x, 0.4f, /*training=*/true, &rng);
  Backward(SumAll(y));
  // Gradient must be exactly the mask: zero where dropped, 1/(1-p) kept.
  for (int64_t i = 0; i < x.grad().numel(); ++i) {
    float g = x.grad().data()[i];
    float v = y.value().data()[i];
    EXPECT_FLOAT_EQ(g, v);  // since x was all-ones
  }
}

// A composite "mini network" gradcheck: MLP with softmax attention-style
// gating, exercising many ops together.
TEST(GradTest, CompositeMiniNetwork) {
  Var w1 = RandParam({4, 6}, 60, 0.5f);
  Var b1 = RandParam({1, 6}, 61, 0.1f);
  Var w2 = RandParam({6, 3}, 62, 0.5f);
  Var x = RandParam({5, 4}, 63);
  ExpectGradOk(
      [&] {
        Var h = Relu(Add(MatMul(x, w1), b1));
        Var gate = SoftmaxRows(MatMul(h, w2));        // [5,3]
        Var pooled = SumAxis(Mul(gate, MatMul(h, w2)), 1);
        return MeanAll(Square(pooled));
      },
      {w1, b1, w2, x});
}

}  // namespace
}  // namespace gnmr
}  // namespace ad
