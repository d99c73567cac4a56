// Tests for nn layers, optimisers and the autoencoder pre-trainer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/nn/embedding.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/nn/pretrain.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/shard_pool.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace gnmr {
namespace nn {
namespace {

using tensor::CsrMatrix;
using tensor::Tensor;

/// RAII worker-count switch for the global shard pool; restores on exit.
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

void ExpectBitIdentical(const Tensor& ref, const Tensor& got,
                        const std::string& context) {
  ASSERT_EQ(ref.shape(), got.shape()) << context;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(ref.data()[i], got.data()[i]) << context << " at " << i;
  }
}

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

TEST(AdamTest, ShardedUpdateBitwiseEqualToPlainLoop) {
  // 40123 elements: past RunRows' fan-out threshold, and no shard cut
  // divides it evenly.
  const int64_t n = 40000 + 123;
  const float lr = 1e-2f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f, wd = 0.1f;
  util::Rng rng(19);
  const Tensor init = Tensor::RandomNormal({n}, &rng);
  std::vector<Tensor> grads;
  for (int step = 0; step < 3; ++step) {
    grads.push_back(Tensor::RandomNormal({n}, &rng));
  }

  // Reference: the update as a plain loop on this thread.
  Tensor ref = init;
  std::vector<float> m(static_cast<size_t>(n), 0.0f);
  std::vector<float> v(static_cast<size_t>(n), 0.0f);
  for (size_t step = 0; step < grads.size(); ++step) {
    const float t = static_cast<float>(step + 1);
    const float bias1 = 1.0f - std::pow(b1, t);
    const float bias2 = 1.0f - std::pow(b2, t);
    const float* g = grads[step].data();
    float* p = ref.data();
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * g[i];
      v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      p[i] -= lr * (m_hat / (std::sqrt(v_hat) + eps) + wd * p[i]);
    }
  }

  auto run = [&] {
    ad::Var x = ad::Var::Param(init);
    Adam opt(lr, b1, b2, eps, wd);
    for (const Tensor& g : grads) {
      x.node()->AccumulateGrad(g);
      opt.Step({x});
    }
    return x.value();
  };
  {
    tensor::ScopedBackend backend("serial");
    const uint64_t before = tensor::GlobalShardPoolStats().dispatches;
    ExpectBitIdentical(ref, run(), "serial");
    EXPECT_EQ(tensor::GlobalShardPoolStats().dispatches, before)
        << "serial dispatched to the shard pool";
  }
  tensor::ScopedBackend backend("sharded");
  for (int64_t workers : {1, 3}) {
    ScopedShardWorkers scoped(workers);
    const uint64_t before = tensor::GlobalShardPoolStats().dispatches;
    ExpectBitIdentical(ref, run(), "sharded@" + std::to_string(workers));
    if (workers > 1) {
      EXPECT_GT(tensor::GlobalShardPoolStats().dispatches, before)
          << "the update never fanned out";
    }
  }
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

// The dense multi-hot rows of `x`: [rows, cols].
Tensor DenseRows(const CsrMatrix& x) {
  Tensor out({x.rows(), x.cols()});
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t p = x.row_ptr()[static_cast<size_t>(r)];
         p < x.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
      out.at(r, x.col_idx()[static_cast<size_t>(p)]) =
          x.values()[static_cast<size_t>(p)];
    }
  }
  return out;
}

void ExpectClose(const Tensor& ref, const Tensor& got, double rel,
                 const std::string& context) {
  ASSERT_EQ(ref.shape(), got.shape()) << context;
  const double scale = std::max<double>(ref.MaxValue(), -ref.MinValue());
  for (int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_NEAR(ref.data()[i], got.data()[i], rel * scale)
        << context << " at " << i;
  }
}

TEST(PretrainTest, MultiHotRowsMatchTheGraph) {
  data::Dataset d = data::GenerateSynthetic(data::TaobaoLike(0.1));
  auto g = d.BuildGraph();
  for (bool user_side : {true, false}) {
    const CsrMatrix rows = MultiHotRows(*g, user_side);
    rows.CheckInvariants();
    const int64_t neighbours = user_side ? g->num_items() : g->num_users();
    ASSERT_EQ(rows.rows(), user_side ? g->num_users() : g->num_items());
    ASSERT_EQ(rows.cols(), neighbours * g->num_behaviors());
    int64_t nnz = 0;
    for (int64_t k = 0; k < g->num_behaviors(); ++k) nnz += g->NumEdges(k);
    EXPECT_EQ(rows.nnz(), nnz);
    for (int64_t e = 0; e < rows.rows(); ++e) {
      for (int64_t p = rows.row_ptr()[static_cast<size_t>(e)];
           p < rows.row_ptr()[static_cast<size_t>(e) + 1]; ++p) {
        const int64_t col = rows.col_idx()[static_cast<size_t>(p)];
        const int64_t k = col / neighbours, j = col % neighbours;
        EXPECT_TRUE(user_side ? g->HasEdge(e, j, k) : g->HasEdge(j, e, k));
        EXPECT_EQ(rows.values()[static_cast<size_t>(p)], 1.0f);
      }
    }
  }
}

TEST(PretrainTest, ClosedFormMseMatchesDenseTape) {
  // A small graph whose user 3 has no interactions; a batch of 7 rows (not
  // a full 64) that includes it and repeats no id.
  data::Dataset d;
  d.name = "small";
  d.num_users = 9;
  d.num_items = 11;
  d.behavior_names = {"view", "cart", "buy"};
  d.target_behavior = 2;
  util::Rng rng(23);
  for (int64_t u = 0; u < d.num_users; ++u) {
    if (u == 3) continue;
    for (int64_t e = 0; e < 6; ++e) {
      d.interactions.push_back({u, rng.UniformInt(0, d.num_items - 1),
                                rng.UniformInt(0, 2), e});
    }
  }
  auto g = d.BuildGraph();
  const CsrMatrix rows = MultiHotRows(*g, /*user_side=*/true);
  const CsrMatrix x = rows.SelectRows({5, 3, 0, 8, 1, 6, 2});
  ASSERT_EQ(x.RowNnz(1), 0);
  const CsrMatrix x_t = x.Transposed();
  const int64_t width = x.cols(), dim = 4;

  // h as a ReLU output (some exact zeros), the decoder at Xavier-like scale.
  const Tensor h0 = tensor::ops::Relu(Tensor::RandomNormal({7, dim}, &rng));
  const Tensor w0 = Tensor::RandomNormal({dim, width}, &rng, 0.0f, 0.3f);
  const Tensor b0 = Tensor::RandomNormal({1, width}, &rng, 0.0f, 0.1f);

  ad::Var h_ref = ad::Var::Param(h0);
  ad::Var w_ref = ad::Var::Param(w0);
  ad::Var b_ref = ad::Var::Param(b0);
  ad::Var dense = ad::MseLoss(ad::Add(ad::MatMul(h_ref, w_ref), b_ref),
                              ad::Var::Constant(DenseRows(x)));
  ad::Backward(dense);

  ad::Var h = ad::Var::Param(h0);
  ad::Var w_t = ad::Var::Param(tensor::ops::Transpose(w0));
  ad::Var b = ad::Var::Param(b0);
  ad::Var loss = SparseReconstructionMse(h, w_t, b, &x, &x_t);
  ad::Backward(loss);

  EXPECT_NEAR(loss.value().at(0), dense.value().at(0),
              1e-5 * dense.value().at(0));
  ExpectClose(h_ref.grad(), h.grad(), 1e-5, "dh");
  ExpectClose(w_ref.grad(), tensor::ops::Transpose(w_t.grad()), 1e-5, "dW2");
  ExpectClose(b_ref.grad(), b.grad(), 1e-5, "db2");
}

TEST(PretrainTest, ClosedFormMseGradCheck) {
  // Rows 0 and 2 carry entries (one not 1), row 1 is empty.
  const CsrMatrix x = CsrMatrix::FromCoo(
      3, 5, {{0, 1, 1.0f}, {0, 4, 1.0f}, {2, 0, 1.0f}, {2, 3, 2.0f}});
  const CsrMatrix x_t = x.Transposed();
  util::Rng rng(29);
  ad::Var h = ad::Var::Param(Tensor::RandomNormal({3, 2}, &rng));
  ad::Var w_t = ad::Var::Param(Tensor::RandomNormal({5, 2}, &rng));
  ad::Var b = ad::Var::Param(Tensor::RandomNormal({1, 5}, &rng));
  auto report = ad::GradCheck(
      [&] { return SparseReconstructionMse(h, w_t, b, &x, &x_t); },
      {h, w_t, b});
  EXPECT_TRUE(report.Accept(2e-2, 2e-3)) << report.worst;
}

TEST(PretrainTest, TablesBitwiseEqualAcrossBackends) {
  // TaobaoLike(0.25): the user side's encoder weight is 1300 x 16, so
  // Adam, the closed-form backward and the SpMMs fan out over the pool.
  data::Dataset d = data::GenerateSynthetic(data::TaobaoLike(0.25, 5));
  auto g = d.BuildGraph();
  PretrainConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 1;
  auto run = [&](const tensor::KernelBackend* backend) {
    tensor::ScopedBackend scoped(backend);
    util::Rng rng(31);
    return PretrainEmbeddings(*g, cfg, &rng);
  };
  const PretrainedEmbeddings ref = run(tensor::FindBackend("serial"));
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
    const uint64_t before = tensor::GlobalShardPoolStats().dispatches;
    const PretrainedEmbeddings got = run(c.backend);
    if (c.workers > 1) {
      EXPECT_GT(tensor::GlobalShardPoolStats().dispatches, before) << c.tag;
    }
    ExpectBitIdentical(ref.user, got.user, std::string(c.tag) + " user");
    ExpectBitIdentical(ref.item, got.item, std::string(c.tag) + " item");
  }
}

TEST(PretrainTest, DatasetOverloadEqualsGraphOverload) {
  data::Dataset d = data::GenerateSynthetic(data::MovieLensLike(0.08));
  PretrainConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  util::Rng rng1(3), rng2(3);
  const PretrainedEmbeddings a = PretrainEmbeddings(d, cfg, &rng1);
  const PretrainedEmbeddings b = PretrainEmbeddings(*d.BuildGraph(), cfg, &rng2);
  ExpectBitIdentical(a.user, b.user, "user");
  ExpectBitIdentical(a.item, b.item, "item");
}

}  // namespace
}  // namespace nn
}  // namespace gnmr
