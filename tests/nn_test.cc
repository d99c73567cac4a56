// Tests for nn layers, optimisers and the autoencoder pre-trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "src/data/synthetic.h"
#include "src/nn/embedding.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/nn/pretrain.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/gradcheck.h"
#include "src/util/rng.h"

namespace gnmr {
namespace nn {
namespace {

using tensor::Tensor;

// -------------------------------------------------------------------- init ----

TEST(InitTest, XavierUniformBounds) {
  util::Rng rng(1);
  Tensor w = XavierUniform(100, 50, &rng);
  float a = std::sqrt(6.0f / 150.0f);
  EXPECT_GE(w.MinValue(), -a);
  EXPECT_LT(w.MaxValue(), a);
  EXPECT_NEAR(w.MeanValue(), 0.0f, 0.01f);
}

// ------------------------------------------------------------------ Linear ----

TEST(LinearTest, ForwardShapeAndBias) {
  util::Rng rng(3);
  Linear layer(4, 3, /*use_bias=*/true, &rng);
  ad::Var x = ad::Var::Constant(Tensor::Ones({2, 4}));
  ad::Var y = layer.Forward(x);
  EXPECT_EQ(y.value().rows(), 2);
  EXPECT_EQ(y.value().cols(), 3);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
}

TEST(LinearTest, NoBiasVariant) {
  util::Rng rng(4);
  Linear layer(4, 3, /*use_bias=*/false, &rng);
  EXPECT_EQ(layer.Parameters().size(), 1u);
}

TEST(LinearTest, GradCheck) {
  util::Rng rng(5);
  Linear layer(3, 2, true, &rng);
  ad::Var x = ad::Var::Param(Tensor::RandomNormal({4, 3}, &rng));
  std::vector<ad::Var> params = layer.Parameters();
  params.push_back(x);
  auto report = ad::GradCheck(
      [&] { return ad::MeanAll(ad::Square(layer.Forward(x))); }, params);
  EXPECT_TRUE(report.Accept(2e-2, 2e-3)) << report.worst;
}

// --------------------------------------------------------------- Embedding ----

TEST(EmbeddingTest, LookupGathersRows) {
  util::Rng rng(6);
  Embedding emb(5, 3, &rng);
  ad::Var rows = emb.Lookup({1, 1, 4});
  EXPECT_EQ(rows.value().rows(), 3);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(rows.value().at(0, c), emb.table().value().at(1, c));
    EXPECT_EQ(rows.value().at(1, c), emb.table().value().at(1, c));
    EXPECT_EQ(rows.value().at(2, c), emb.table().value().at(4, c));
  }
}

TEST(EmbeddingTest, FromExternalTable) {
  Embedding emb(Tensor::FromData({2, 2}, {1, 2, 3, 4}));
  EXPECT_EQ(emb.count(), 2);
  EXPECT_EQ(emb.dim(), 2);
  EXPECT_EQ(emb.Lookup({1}).value().at(0, 1), 4.0f);
}

TEST(EmbeddingTest, LookupGradientIsSparseScatter) {
  util::Rng rng(7);
  Embedding emb(4, 2, &rng);
  ad::Var rows = emb.Lookup({2, 2});
  ad::Backward(ad::SumAll(rows));
  const Tensor& g = emb.table().grad();
  EXPECT_EQ(g.at(2, 0), 2.0f);  // two lookups accumulate
  EXPECT_EQ(g.at(0, 0), 0.0f);
  EXPECT_EQ(g.at(3, 1), 0.0f);
}

// --------------------------------------------------------------------- MLP ----

TEST(MlpTest, ShapesAndParamCount) {
  util::Rng rng(8);
  Mlp mlp({6, 8, 4, 1}, Activation::kRelu, Activation::kNone, &rng);
  ad::Var x = ad::Var::Constant(Tensor::Ones({3, 6}));
  ad::Var y = mlp.Forward(x);
  EXPECT_EQ(y.value().rows(), 3);
  EXPECT_EQ(y.value().cols(), 1);
  EXPECT_EQ(mlp.NumParameters(), (6 * 8 + 8) + (8 * 4 + 4) + (4 * 1 + 1));
}

TEST(MlpTest, FinalActivationApplied) {
  util::Rng rng(9);
  Mlp mlp({2, 2}, Activation::kNone, Activation::kSigmoid, &rng);
  ad::Var x = ad::Var::Constant(Tensor::RandomNormal({5, 2}, &rng, 0, 10));
  ad::Var y = mlp.Forward(x);
  EXPECT_GE(y.value().MinValue(), 0.0f);
  EXPECT_LE(y.value().MaxValue(), 1.0f);
}

TEST(MlpTest, GradCheckThroughTwoLayers) {
  util::Rng rng(10);
  Mlp mlp({3, 4, 2}, Activation::kTanh, Activation::kNone, &rng);
  ad::Var x = ad::Var::Param(Tensor::RandomNormal({5, 3}, &rng));
  std::vector<ad::Var> params = mlp.Parameters();
  params.push_back(x);
  auto report = ad::GradCheck(
      [&] { return ad::MeanAll(ad::Square(mlp.Forward(x))); }, params);
  EXPECT_TRUE(report.Accept(2e-2, 2e-3)) << report.worst;
}

// -------------------------------------------------------------- Optimisers ----

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  util::Rng rng(11);
  ad::Var x = ad::Var::Param(Tensor::RandomNormal({4, 4}, &rng));
  Adam opt(0.05);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int i = 0; i < 200; ++i) {
    ad::Var loss = ad::MeanAll(ad::Square(ad::AddScalar(x, -1.0f)));
    if (i == 0) first_loss = loss.value().at(0);
    last_loss = loss.value().at(0);
    ad::Backward(loss);
    opt.Step({x});
  }
  EXPECT_LT(last_loss, 1e-4f);
  EXPECT_LT(last_loss, first_loss);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  // With zero gradient signal, decoupled decay pulls weights toward 0.
  ad::Var x = ad::Var::Param(Tensor::Full({3}, 1.0f));
  Adam opt(0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/0.5);
  for (int i = 0; i < 50; ++i) {
    // Constant loss w.r.t. x has zero grad; fabricate a zero grad by using
    // 0 * x so the optimiser still sees the parameter.
    ad::Var loss = ad::SumAll(ad::MulScalar(x, 0.0f));
    ad::Backward(loss);
    opt.Step({x});
  }
  EXPECT_LT(x.value().at(0), 0.9f);
}

TEST(AdamTest, LearningRateDecay) {
  Adam opt(1.0);
  opt.DecayLearningRate(0.96);
  opt.DecayLearningRate(0.96);
  EXPECT_NEAR(opt.learning_rate(), 0.96 * 0.96, 1e-12);
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  ad::Var with_grad = ad::Var::Param(Tensor::Scalar(1.0f));
  ad::Var without_grad = ad::Var::Param(Tensor::Scalar(1.0f));
  ad::Backward(ad::SumAll(ad::Square(with_grad)));
  Adam opt(0.1);
  opt.Step({with_grad, without_grad});
  EXPECT_NE(with_grad.value().at(0), 1.0f);
  EXPECT_EQ(without_grad.value().at(0), 1.0f);
}

TEST(GradClipTest, ScalesDownLargeGradients) {
  ad::Var x = ad::Var::Param(Tensor::Full({4}, 10.0f));
  ad::Backward(ad::SumAll(ad::Square(x)));  // grad = 20 each, norm = 40
  EXPECT_NEAR(GlobalGradNorm({x}), 40.0, 1e-3);
  ClipGradNorm({x}, 1.0);
  EXPECT_NEAR(GlobalGradNorm({x}), 1.0, 1e-4);
}

TEST(GradClipTest, LeavesSmallGradientsAlone) {
  ad::Var x = ad::Var::Param(Tensor::Full({4}, 0.01f));
  ad::Backward(ad::SumAll(ad::Square(x)));
  double before = GlobalGradNorm({x});
  ClipGradNorm({x}, 1.0);
  EXPECT_NEAR(GlobalGradNorm({x}), before, 1e-9);
}

// ---------------------------------------------------------------- Pretrain ----

TEST(PretrainTest, ShapesAndDeterminism) {
  data::Dataset d = data::GenerateSynthetic(data::MovieLensLike(0.08));
  PretrainConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  util::Rng rng1(42), rng2(42);
  auto a = PretrainEmbeddings(d, cfg, &rng1);
  auto b = PretrainEmbeddings(d, cfg, &rng2);
  EXPECT_EQ(a.user.rows(), d.num_users);
  EXPECT_EQ(a.user.cols(), 8);
  EXPECT_EQ(a.item.rows(), d.num_items);
  for (int64_t i = 0; i < a.user.numel(); ++i) {
    EXPECT_EQ(a.user.data()[i], b.user.data()[i]);
  }
  EXPECT_FALSE(a.user.HasNonFinite());
  EXPECT_FALSE(a.item.HasNonFinite());
}

TEST(PretrainTest, EmbeddingsCarrySignal) {
  // Users sharing many interactions should end up closer in embedding space
  // than users sharing none. Build a two-cluster dataset.
  data::Dataset d;
  d.name = "clusters";
  d.num_users = 20;
  d.num_items = 40;
  d.behavior_names = {"view", "buy"};
  d.target_behavior = 1;
  for (int64_t u = 0; u < 20; ++u) {
    bool cluster_a = u < 10;
    for (int64_t j = 0; j < 12; ++j) {
      int64_t item = cluster_a ? j : 20 + j;
      d.interactions.push_back({u, item, 0, j});
      if (j < 4) d.interactions.push_back({u, item, 1, j});
    }
  }
  PretrainConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 10;
  cfg.learning_rate = 1e-2;
  util::Rng rng(7);
  auto emb = PretrainEmbeddings(d, cfg, &rng);
  auto dist = [&](int64_t a, int64_t b) {
    double s = 0.0;
    for (int64_t c = 0; c < 8; ++c) {
      double diff = emb.user.at(a, c) - emb.user.at(b, c);
      s += diff * diff;
    }
    return s;
  };
  // Average intra-cluster vs inter-cluster distance.
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (int64_t a = 0; a < 20; ++a) {
    for (int64_t b = a + 1; b < 20; ++b) {
      if ((a < 10) == (b < 10)) {
        intra += dist(a, b);
        ++n_intra;
      } else {
        inter += dist(a, b);
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

}  // namespace
}  // namespace nn
}  // namespace gnmr
