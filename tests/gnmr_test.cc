// Tests for the GNMR core model: layer mechanics, gradient correctness,
// config ablations, and end-to-end learning on synthetic data. The fused
// layer ops (gnmr_fused_ops.h) are held to the unfused composition of
// small ad ops kept below as the reference: bitwise on forward values,
// finite differences and a tolerance on gradients, and bit-identical
// gradients across backends and worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "src/core/gnmr_fused_ops.h"
#include "src/core/gnmr_layers.h"
#include "src/core/gnmr_model.h"
#include "src/core/gnmr_trainer.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/obs/trace.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/shard_pool.h"

namespace gnmr {
namespace core {
namespace {

using tensor::Tensor;

data::Dataset TinyTrainSet() {
  data::SyntheticConfig cfg = data::MovieLensLike(0.08, /*seed=*/7);
  return data::GenerateSynthetic(cfg);
}

GnmrConfig FastConfig() {
  GnmrConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_channels = 4;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.epochs = 5;
  cfg.use_pretrain = false;  // keep unit tests fast
  cfg.batch_users = 64;
  cfg.verbose = false;
  return cfg;
}

// ------------------------------------------- Unfused reference composition
// The layer as it ran before fusion: eta, xi and psi as compositions of
// small ad ops, one behavior, channel and head at a time. Parameters come
// in each module's Parameters() order.

namespace reference {

using Params = std::vector<ad::Var>;

// eta on one behavior's [N, d] summary; p = {W1, b1, W2_0 .. W2_{C-1}}.
ad::Var Eta(const ad::Var& s, const Params& p) {
  ad::Var alpha = ad::Relu(ad::Add(ad::MatMul(s, p[0]), p[1]));
  ad::Var out;
  for (size_t c = 2; c < p.size(); ++c) {
    ad::Var gate = ad::SliceCols(alpha, static_cast<int64_t>(c - 2), 1);
    ad::Var term = ad::Mul(ad::MatMul(s, p[c]), gate);
    out = out.defined() ? ad::Add(out, term) : term;
  }
  return out;
}

// xi over K behaviors; p = {q_0..q_{S-1}, k_0.., v_0..}.
std::vector<ad::Var> Xi(const std::vector<ad::Var>& behaviors,
                        const Params& p) {
  const size_t heads = p.size() / 3;
  const size_t num_k = behaviors.size();
  const int64_t head_dim = p[0].value().cols();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<std::vector<ad::Var>> q(heads), k(heads), v(heads);
  for (size_t s = 0; s < heads; ++s) {
    for (const ad::Var& h : behaviors) {
      q[s].push_back(ad::MatMul(h, p[s]));
      k[s].push_back(ad::MatMul(h, p[heads + s]));
      v[s].push_back(ad::MatMul(h, p[2 * heads + s]));
    }
  }
  std::vector<ad::Var> out;
  for (size_t kq = 0; kq < num_k; ++kq) {
    std::vector<ad::Var> head_msgs;
    for (size_t s = 0; s < heads; ++s) {
      std::vector<ad::Var> logits;
      for (size_t kk = 0; kk < num_k; ++kk) {
        logits.push_back(
            ad::MulScalar(ad::RowDot(q[s][kq], k[s][kk]), scale));
      }
      ad::Var attn = ad::SoftmaxRows(ad::ConcatCols(logits));
      ad::Var msg;
      for (size_t kk = 0; kk < num_k; ++kk) {
        ad::Var term = ad::Mul(
            v[s][kk], ad::SliceCols(attn, static_cast<int64_t>(kk), 1));
        msg = msg.defined() ? ad::Add(msg, term) : term;
      }
      head_msgs.push_back(msg);
    }
    out.push_back(ad::Add(ad::ConcatCols(head_msgs), behaviors[kq]));
  }
  return out;
}

// psi over K behaviors; p = {W3, b2, w2, b3}.
ad::Var Psi(const std::vector<ad::Var>& behaviors, const Params& p) {
  std::vector<ad::Var> logits;
  for (const ad::Var& h : behaviors) {
    ad::Var hidden = ad::Relu(ad::Add(ad::MatMul(h, p[0]), p[1]));
    logits.push_back(ad::Add(ad::MatMul(hidden, p[2]), p[3]));
  }
  ad::Var gate = ad::SoftmaxRows(ad::ConcatCols(logits));
  ad::Var out;
  for (size_t kk = 0; kk < behaviors.size(); ++kk) {
    ad::Var term = ad::Mul(behaviors[kk],
                           ad::SliceCols(gate, static_cast<int64_t>(kk), 1));
    out = out.defined() ? ad::Add(out, term) : term;
  }
  return out;
}

ad::Var Mean(const std::vector<ad::Var>& behaviors) {
  ad::Var sum;
  for (const ad::Var& b : behaviors) {
    sum = sum.defined() ? ad::Add(sum, b) : b;
  }
  return ad::MulScalar(sum, 1.0f / static_cast<float>(behaviors.size()));
}

// The modules' parameters of one layer, split per module.
struct LayerParams {
  Params eta, xi, psi;
};

LayerParams SplitLayerParams(const GnmrConfig& cfg, const Params& all) {
  LayerParams out;
  size_t at = 0;
  auto take = [&](size_t count, Params* dst) {
    dst->assign(all.begin() + static_cast<int64_t>(at),
                all.begin() + static_cast<int64_t>(at + count));
    at += count;
  };
  if (cfg.use_type_embedding) {
    take(2 + static_cast<size_t>(cfg.num_channels), &out.eta);
  }
  if (cfg.use_relation_attention) {
    take(3 * static_cast<size_t>(cfg.num_heads), &out.xi);
  }
  if (cfg.use_behavior_gate) take(4, &out.psi);
  EXPECT_EQ(at, all.size());
  return out;
}

// Spmm per behavior, then eta / xi / psi (or the mean) as configured.
ad::Var Layer(const GnmrConfig& cfg,
              const std::vector<const graph::SparseOp*>& adj,
              const LayerParams& p, const ad::Var& h) {
  std::vector<ad::Var> behaviors;
  for (const graph::SparseOp* a : adj) {
    ad::Var summary = ad::Spmm(&a->forward, &a->backward, h);
    behaviors.push_back(cfg.use_type_embedding ? Eta(summary, p.eta)
                                               : summary);
  }
  if (cfg.use_relation_attention) behaviors = Xi(behaviors, p.xi);
  return cfg.use_behavior_gate ? Psi(behaviors, p.psi) : Mean(behaviors);
}

}  // namespace reference

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Largest |a - b| relative to the larger magnitude of either tensor.
double MaxRelDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double scale = 1e-12;
  double diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    scale = std::max({scale, std::fabs(static_cast<double>(a.data()[i])),
                      std::fabs(static_cast<double>(b.data()[i]))});
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff / scale;
}

// A fixed random weighting of every output element, summed.
ad::Var WeightedSum(const ad::Var& v, uint64_t seed = 99) {
  util::Rng rng(seed);
  return ad::SumAll(ad::Mul(
      v, ad::Var::Constant(Tensor::RandomNormal(v.value().shape(), &rng))));
}

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

// The bit-exact backend configurations every fused-op result must agree
// across: the serial reference, sharded at 1 and 3 workers, and sharded
// on the serial range kernels.
struct BackendCase {
  const tensor::KernelBackend* backend;
  int64_t workers;
  const char* tag;
};

std::vector<BackendCase> BitExactBackends() {
  return {{tensor::FindBackend("serial"), 1, "serial"},
          {tensor::FindBackend("sharded"), 1, "sharded@1"},
          {tensor::FindBackend("sharded"), 3, "sharded@3"},
          {tensor::ShardedSerialKernelsForTest(), 3,
           "sharded/serial-kernels@3"}};
}

// A random [n, n] operator with ragged rows (some empty) and its transpose.
std::unique_ptr<graph::SparseOp> RandomAdjacency(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<tensor::Coo> entries;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;
    const int64_t deg = rng.UniformInt(1, 6);
    for (int64_t e = 0; e < deg; ++e) {
      entries.push_back({i, rng.UniformInt(0, n - 1),
                         rng.Uniform(0.1f, 1.0f)});
    }
  }
  auto op = std::make_unique<graph::SparseOp>();
  op->forward = tensor::CsrMatrix::FromCoo(n, n, entries);
  op->backward = op->forward.Transposed();
  return op;
}

// ------------------------------------------------------ TypeBehaviorEmbedding

TEST(TypeBehaviorEmbeddingTest, OutputShapeAndParamCount) {
  util::Rng rng(1);
  TypeBehaviorEmbedding eta(8, 4, &rng);
  ad::Var s = ad::Var::Constant(Tensor::RandomNormal({10, 8}, &rng));
  ad::Var out = eta.Forward(s);
  EXPECT_EQ(out.value().rows(), 10);
  EXPECT_EQ(out.value().cols(), 8);
  // W1 [8,4] + b1 [4] + 4x W2 [8,8]
  EXPECT_EQ(eta.NumParameters(), 8 * 4 + 4 + 4 * 64);
}

TEST(TypeBehaviorEmbeddingTest, GradCheck) {
  util::Rng rng(2);
  TypeBehaviorEmbedding eta(4, 3, &rng);
  ad::Var s = ad::Var::Param(Tensor::RandomNormal({5, 4}, &rng));
  std::vector<ad::Var> params = eta.Parameters();
  params.push_back(s);
  auto report = ad::GradCheck(
      [&] { return ad::MeanAll(ad::Square(eta.Forward(s))); }, params);
  EXPECT_TRUE(report.Accept(3e-2, 3e-3)) << report.worst;
}

TEST(TypeBehaviorEmbeddingTest, GateActuallyGates) {
  // With strongly negative pre-activations the ReLU gate closes and the
  // output collapses to zero.
  util::Rng rng(3);
  TypeBehaviorEmbedding eta(4, 2, &rng);
  // Force b1 very negative so alpha = 0 regardless of input.
  eta.Parameters()[1].mutable_value()->Fill(-100.0f);
  ad::Var s = ad::Var::Constant(Tensor::RandomNormal({6, 4}, &rng));
  ad::Var out = eta.Forward(s);
  EXPECT_NEAR(out.value().L2Norm(), 0.0f, 1e-5f);
}

// -------------------------------------------------- BehaviorRelationAttention

TEST(BehaviorRelationAttentionTest, ShapesPreserved) {
  util::Rng rng(4);
  BehaviorRelationAttention xi(8, 2, &rng);
  std::vector<ad::Var> behaviors;
  for (int k = 0; k < 3; ++k) {
    behaviors.push_back(ad::Var::Constant(Tensor::RandomNormal({7, 8}, &rng)));
  }
  auto out = xi.Forward(behaviors);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& o : out) {
    EXPECT_EQ(o.value().rows(), 7);
    EXPECT_EQ(o.value().cols(), 8);
  }
}

TEST(BehaviorRelationAttentionTest, ResidualDominatesAtZeroWeights) {
  // Zeroing Q/K/V collapses attention messages to 0; outputs equal inputs
  // (the residual path).
  util::Rng rng(5);
  BehaviorRelationAttention xi(6, 2, &rng);
  for (ad::Var p : xi.Parameters()) p.mutable_value()->Fill(0.0f);
  std::vector<ad::Var> behaviors = {
      ad::Var::Constant(Tensor::RandomNormal({4, 6}, &rng)),
      ad::Var::Constant(Tensor::RandomNormal({4, 6}, &rng))};
  auto out = xi.Forward(behaviors);
  for (size_t k = 0; k < 2; ++k) {
    for (int64_t i = 0; i < out[k].value().numel(); ++i) {
      EXPECT_FLOAT_EQ(out[k].value().data()[i],
                      behaviors[k].value().data()[i]);
    }
  }
}

TEST(BehaviorRelationAttentionTest, GradCheck) {
  util::Rng rng(6);
  BehaviorRelationAttention xi(4, 2, &rng);
  std::vector<ad::Var> behaviors = {
      ad::Var::Param(Tensor::RandomNormal({3, 4}, &rng)),
      ad::Var::Param(Tensor::RandomNormal({3, 4}, &rng))};
  std::vector<ad::Var> params = xi.Parameters();
  params.push_back(behaviors[0]);
  params.push_back(behaviors[1]);
  auto report = ad::GradCheck(
      [&] {
        auto out = xi.Forward(behaviors);
        ad::Var loss = ad::MeanAll(ad::Square(out[0]));
        return ad::Add(loss, ad::MeanAll(ad::Square(out[1])));
      },
      params);
  EXPECT_TRUE(report.Accept(3e-2, 3e-3)) << report.worst;
}

TEST(BehaviorRelationAttentionDeathTest, HeadsMustDivideDim) {
  util::Rng rng(7);
  EXPECT_DEATH(BehaviorRelationAttention(7, 2, &rng), "divide");
}

// --------------------------------------------------------------- BehaviorGate

TEST(BehaviorGateTest, OutputIsConvexCombinationForSharedInput) {
  // If all K inputs are the same tensor, any softmax weighting returns it.
  util::Rng rng(8);
  BehaviorGate psi(6, 6, &rng);
  ad::Var h = ad::Var::Constant(Tensor::RandomNormal({5, 6}, &rng));
  ad::Var out = psi.Forward({h, h, h});
  for (int64_t i = 0; i < out.value().numel(); ++i) {
    EXPECT_NEAR(out.value().data()[i], h.value().data()[i], 1e-5f);
  }
}

TEST(BehaviorGateTest, GradCheck) {
  util::Rng rng(9);
  BehaviorGate psi(4, 4, &rng);
  std::vector<ad::Var> behaviors = {
      ad::Var::Param(Tensor::RandomNormal({3, 4}, &rng)),
      ad::Var::Param(Tensor::RandomNormal({3, 4}, &rng)),
      ad::Var::Param(Tensor::RandomNormal({3, 4}, &rng))};
  std::vector<ad::Var> params = psi.Parameters();
  for (const auto& b : behaviors) params.push_back(b);
  auto report = ad::GradCheck(
      [&] { return ad::MeanAll(ad::Square(psi.Forward(behaviors))); },
      params);
  EXPECT_TRUE(report.Accept(3e-2, 3e-3)) << report.worst;
}

// ------------------------------------------------------------------ GnmrLayer

TEST(GnmrLayerTest, ForwardShapeAllVariants) {
  data::Dataset train = TinyTrainSet();
  auto graph = train.BuildGraph();
  util::Rng rng(10);
  for (bool eta : {true, false}) {
    for (bool xi : {true, false}) {
      for (bool psi : {true, false}) {
        GnmrConfig cfg = FastConfig();
        cfg.use_type_embedding = eta;
        cfg.use_relation_attention = xi;
        cfg.use_behavior_gate = psi;
        GnmrLayer layer(cfg, graph.get(), &rng);
        ad::Var h = ad::Var::Constant(
            Tensor::RandomNormal({graph->num_nodes(), cfg.embedding_dim},
                                 &rng, 0.0f, 0.1f));
        ad::Var out = layer.Forward(h);
        EXPECT_EQ(out.value().rows(), graph->num_nodes());
        EXPECT_EQ(out.value().cols(), cfg.embedding_dim);
        EXPECT_FALSE(out.value().HasNonFinite());
      }
    }
  }
}

TEST(GnmrLayerTest, AblationsShrinkParameterCount) {
  data::Dataset train = TinyTrainSet();
  auto graph = train.BuildGraph();
  util::Rng rng(11);
  GnmrConfig full = FastConfig();
  GnmrConfig no_eta = full;
  no_eta.use_type_embedding = false;
  GnmrConfig no_xi = full;
  no_xi.use_relation_attention = false;
  GnmrLayer l_full(full, graph.get(), &rng);
  GnmrLayer l_be(no_eta, graph.get(), &rng);
  GnmrLayer l_ma(no_xi, graph.get(), &rng);
  EXPECT_GT(l_full.NumParameters(), l_be.NumParameters());
  EXPECT_GT(l_full.NumParameters(), l_ma.NumParameters());
}

// ------------------------------------------------ Fused layer vs reference

// Every ablation combination under both readouts: each propagated layer
// of the fused model is bitwise equal to the unfused reference run on the
// same parameters, so are the readout scores, and the gradients agree
// with the reference's up to the reassociated sums.
TEST(FusedLayerTest, ForwardBitwiseEqualsReferenceAllAblationsAndReadouts) {
  data::Dataset train = TinyTrainSet();
  std::vector<int64_t> users = {0, 1, 2, 5, 7};
  std::vector<int64_t> items = {3, 0, 5, 2, 9};
  for (GnmrConfig::Readout readout :
       {GnmrConfig::Readout::kConcat, GnmrConfig::Readout::kSumLayers}) {
    for (int mask = 0; mask < 8; ++mask) {
      GnmrConfig cfg = FastConfig();
      cfg.readout = readout;
      cfg.use_type_embedding = (mask & 1) != 0;
      cfg.use_relation_attention = (mask & 2) != 0;
      cfg.use_behavior_gate = (mask & 4) != 0;
      const std::string tag = "mask " + std::to_string(mask) + " readout " +
                              std::to_string(static_cast<int>(readout));
      GnmrModel model(cfg, train);
      const std::vector<ad::Var> params = model.Parameters();
      std::vector<ad::Var> fused = model.Propagate();

      // params = {H^0} then each layer's modules in order.
      const auto adj = model.graph().UnifiedAdjacencies(cfg.neighbor_norm);
      const size_t per_layer = (params.size() - 1) / cfg.num_layers;
      std::vector<ad::Var> ref = {params[0]};
      for (int64_t l = 0; l < cfg.num_layers; ++l) {
        const auto first = params.begin() + 1 + l * per_layer;
        const reference::LayerParams lp = reference::SplitLayerParams(
            cfg, std::vector<ad::Var>(first, first + per_layer));
        ref.push_back(reference::Layer(cfg, adj, lp, ref.back()));
      }
      ASSERT_EQ(fused.size(), ref.size()) << tag;
      for (size_t l = 0; l < fused.size(); ++l) {
        EXPECT_TRUE(BitwiseEqual(fused[l].value(), ref[l].value()))
            << tag << " layer " << l;
      }
      ad::Var fused_scores = model.ScorePairs(fused, users, items);
      ad::Var ref_scores = model.ScorePairs(ref, users, items);
      EXPECT_TRUE(BitwiseEqual(fused_scores.value(), ref_scores.value()))
          << tag;

      auto grads_of = [&](const ad::Var& scores) {
        for (ad::Var p : params) p.ZeroGrad();
        ad::Backward(WeightedSum(scores));
        std::vector<Tensor> g;
        for (const ad::Var& p : params) g.push_back(p.grad());
        return g;
      };
      const std::vector<Tensor> g_fused = grads_of(fused_scores);
      const std::vector<Tensor> g_ref = grads_of(ref_scores);
      for (size_t i = 0; i < params.size(); ++i) {
        // psi's b3 shifts all K logits of a node alike, so the softmax
        // cancels it: its true gradient is 0, and both tapes return
        // rounding noise of different association.
        if (params[i].shape() == std::vector<int64_t>{1, 1}) continue;
        EXPECT_LT(MaxRelDiff(g_fused[i], g_ref[i]), 1e-5)
            << tag << " param " << i;
      }
    }
  }
}

// Odd shapes (K, C, S in {1, 3}, {1, 3}, {1, 4}; d = 12; N = 3001, not a
// multiple of any shard cut) through StackedSpmm, eta, xi and psi or the
// mean: forward bitwise equal to the reference on every bit-exact backend
// configuration, gradients bit-identical across them.
TEST(FusedLayerTest, OddShapesBitwiseAcrossBackends) {
  constexpr int64_t kNodes = 3001;
  constexpr int64_t kDim = 12;
  constexpr int64_t kGateHidden = 7;
  for (int64_t num_k : {1, 3}) {
    for (int64_t channels : {1, 3}) {
      for (int64_t heads : {1, 4}) {
        for (bool gate : {true, false}) {
          const std::string tag =
              "K=" + std::to_string(num_k) + " C=" + std::to_string(channels) +
              " S=" + std::to_string(heads) + (gate ? " psi" : " mean");
          util::Rng rng(static_cast<uint64_t>(100 * num_k + 10 * channels +
                                              heads));
          std::vector<std::unique_ptr<graph::SparseOp>> owned;
          std::vector<const graph::SparseOp*> adj;
          for (int64_t k = 0; k < num_k; ++k) {
            owned.push_back(RandomAdjacency(kNodes, 7 + k));
            adj.push_back(owned.back().get());
          }
          TypeBehaviorEmbedding eta(kDim, channels, &rng);
          BehaviorRelationAttention xi(kDim, heads, &rng);
          BehaviorGate psi(kDim, kGateHidden, &rng);
          ad::Var h = ad::Var::Param(
              Tensor::RandomNormal({kNodes, kDim}, &rng, 0.0f, 0.5f));
          std::vector<ad::Var> params = {h};
          for (const nn::Module* m :
               std::vector<const nn::Module*>{&eta, &xi, &psi}) {
            for (const ad::Var& p : m->Parameters()) params.push_back(p);
          }
          GnmrConfig cfg;
          cfg.use_behavior_gate = gate;
          reference::LayerParams lp;
          lp.eta = eta.Parameters();
          lp.xi = xi.Parameters();
          lp.psi = psi.Parameters();

          std::vector<Tensor> first_grads;
          for (const BackendCase& c : BitExactBackends()) {
            tensor::ScopedBackend scoped(c.backend);
            ScopedShardWorkers workers(c.workers);
            ad::Var stack = eta.Forward(StackedSpmm(adj, h));
            stack = xi.ForwardStacked(stack, num_k);
            ad::Var out = gate ? psi.ForwardStacked(stack, num_k)
                               : BehaviorMean(stack, num_k);
            ad::Var ref = reference::Layer(cfg, adj, lp, h);
            EXPECT_TRUE(BitwiseEqual(out.value(), ref.value()))
                << tag << " " << c.tag;
            for (ad::Var p : params) p.ZeroGrad();
            ad::Backward(WeightedSum(out));
            for (size_t i = 0; i < params.size(); ++i) {
              if (!params[i].has_grad()) continue;  // psi's when unused
              // Bitwise-equal NaNs would pass the comparison below.
              EXPECT_FALSE(params[i].grad().HasNonFinite())
                  << tag << " " << c.tag << " param " << i;
              if (first_grads.size() < params.size()) {
                first_grads.resize(params.size());
              }
              if (first_grads[i].empty()) {
                first_grads[i] = params[i].grad();
                continue;
              }
              EXPECT_TRUE(BitwiseEqual(params[i].grad(), first_grads[i]))
                  << tag << " " << c.tag << " param " << i;
            }
          }
        }
      }
    }
  }
}

// Finite-difference checks of each fused op on its own, in the
// tensor_grad_test style: a random weighting of every output element.
void ExpectFusedGradOk(const std::function<ad::Var()>& out_fn,
                       const std::vector<ad::Var>& params) {
  auto report = ad::GradCheck([&] { return WeightedSum(out_fn()); }, params);
  EXPECT_TRUE(report.Accept(2e-2, 2e-3))
      << "rel=" << report.max_rel_err << " abs=" << report.max_abs_err
      << " at " << report.worst;
}

ad::Var RandomParam(std::vector<int64_t> shape, uint64_t seed,
                    float stddev = 1.0f) {
  util::Rng rng(seed);
  return ad::Var::Param(
      Tensor::RandomNormal(std::move(shape), &rng, 0.0f, stddev));
}

TEST(FusedOpGradTest, StackedSpmm) {
  auto a0 = RandomAdjacency(6, 1);
  auto a1 = RandomAdjacency(6, 2);
  ad::Var h = RandomParam({6, 3}, 3);
  ExpectFusedGradOk([&] { return StackedSpmm({a0.get(), a1.get()}, h); },
                    {h});
}

TEST(FusedOpGradTest, TypeEmbedding) {
  ad::Var s = RandomParam({7, 4}, 4);
  ad::Var w1 = RandomParam({4, 3}, 5);
  ad::Var b1 = RandomParam({1, 3}, 6, 0.3f);
  std::vector<ad::Var> w2 = {RandomParam({4, 4}, 7), RandomParam({4, 4}, 8),
                             RandomParam({4, 4}, 9)};
  std::vector<ad::Var> params = {s, w1, b1};
  params.insert(params.end(), w2.begin(), w2.end());
  ExpectFusedGradOk([&] { return FusedTypeEmbedding(s, w1, b1, w2); },
                    params);
}

TEST(FusedOpGradTest, RelationAttention) {
  // K = 3 behaviors of 4 nodes, d = 4, S = 2 heads.
  ad::Var x = RandomParam({12, 4}, 10);
  std::vector<ad::Var> q = {RandomParam({4, 2}, 11), RandomParam({4, 2}, 12)};
  std::vector<ad::Var> k = {RandomParam({4, 2}, 13), RandomParam({4, 2}, 14)};
  std::vector<ad::Var> v = {RandomParam({4, 2}, 15), RandomParam({4, 2}, 16)};
  std::vector<ad::Var> params = {x};
  for (const auto* group : {&q, &k, &v}) {
    params.insert(params.end(), group->begin(), group->end());
  }
  ExpectFusedGradOk([&] { return FusedRelationAttention(x, 3, q, k, v); },
                    params);
}

TEST(FusedOpGradTest, BehaviorGate) {
  ad::Var x = RandomParam({12, 4}, 17);
  ad::Var w3 = RandomParam({4, 5}, 18);
  ad::Var b2 = RandomParam({1, 5}, 19, 0.3f);
  ad::Var w2 = RandomParam({5, 1}, 20);
  ad::Var b3 = RandomParam({1, 1}, 21);
  ExpectFusedGradOk([&] { return FusedBehaviorGate(x, 3, w3, b2, w2, b3); },
                    {x, w3, b2, w2, b3});
}

TEST(FusedOpGradTest, BehaviorMean) {
  ad::Var x = RandomParam({12, 4}, 22);
  ExpectFusedGradOk([&] { return BehaviorMean(x, 3); }, {x});
}

// ------------------------------------------------------------------ GnmrModel

TEST(GnmrModelTest, PropagateReturnsLayersPlusInput) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  GnmrModel model(cfg, train);
  auto layers = model.Propagate();
  EXPECT_EQ(static_cast<int64_t>(layers.size()), cfg.num_layers + 1);
  for (const auto& l : layers) {
    EXPECT_EQ(l.value().rows(), model.graph().num_nodes());
  }
}

TEST(GnmrModelTest, ZeroLayerModelWorks) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  cfg.num_layers = 0;
  GnmrModel model(cfg, train);
  auto layers = model.Propagate();
  EXPECT_EQ(layers.size(), 1u);
  model.RefreshInferenceCache();
  EXPECT_TRUE(std::isfinite(model.Score(0, 0)));
}

TEST(GnmrModelTest, ScorePairsMatchesInferenceCache) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  GnmrModel model(cfg, train);
  auto layers = model.Propagate();
  std::vector<int64_t> users = {0, 1, 2};
  std::vector<int64_t> items = {3, 0, 5};
  ad::Var scores = model.ScorePairs(layers, users, items);
  model.RefreshInferenceCache();
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_NEAR(scores.value().at(static_cast<int64_t>(i), 0),
                model.Score(users[i], items[i]), 1e-4f);
  }
}

TEST(GnmrModelTest, PretrainInitDiffersFromRandom) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig with = FastConfig();
  with.use_pretrain = true;
  with.pretrain_epochs = 1;
  GnmrConfig without = FastConfig();
  without.use_pretrain = false;
  GnmrModel a(with, train), b(without, train);
  // Same seed but different init paths -> different H^0.
  const Tensor& ta = a.Parameters()[0].value();
  const Tensor& tb = b.Parameters()[0].value();
  ASSERT_TRUE(ta.SameShape(tb));
  double diff = 0.0;
  for (int64_t i = 0; i < ta.numel(); ++i) {
    diff += std::fabs(ta.data()[i] - tb.data()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(GnmrModelDeathTest, ScoreWithoutCacheAborts) {
  data::Dataset train = TinyTrainSet();
  GnmrModel model(FastConfig(), train);
  EXPECT_DEATH(model.Score(0, 0), "RefreshInferenceCache");
}

// -------------------------------------------------------------- GnmrTrainer ----

TEST(GnmrTrainerTest, LossDecreasesOverEpochs) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  cfg.epochs = 15;
  cfg.learning_rate = 1e-2;
  GnmrTrainer trainer(cfg, train);
  double first = trainer.TrainEpoch().mean_loss;
  double last = 0.0;
  for (int e = 1; e < cfg.epochs; ++e) last = trainer.TrainEpoch().mean_loss;
  // The hinge loss starts at ~margin and must drop clearly once scores
  // separate.
  EXPECT_LT(last, 0.8 * first);
}

TEST(GnmrTrainerTest, TrainedModelBeatsRandomRanking) {
  data::SyntheticConfig scfg = data::MovieLensLike(0.4, 11);
  data::Dataset full = data::GenerateSynthetic(scfg);
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  util::Rng rng(17);
  auto cands = data::BuildEvalCandidates(split.train, split.test, 99, &rng);

  GnmrConfig cfg = FastConfig();
  cfg.epochs = 15;
  cfg.learning_rate = 5e-3;
  GnmrTrainer trainer(cfg, split.train);
  trainer.Train();
  auto scorer = trainer.MakeScorer();
  eval::RankingMetrics m = eval::EvaluateRanking(scorer.get(), cands, {10});
  // Random ranking gives HR@10 ~= 0.10; the trained model must beat it
  // decisively.
  EXPECT_GT(m.hr[10], 0.2) << "HR@10=" << m.hr[10];
}

TEST(GnmrTrainerTest, DeterministicGivenSeed) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  cfg.epochs = 2;
  GnmrTrainer a(cfg, train), b(cfg, train);
  a.Train();
  b.Train();
  a.model().RefreshInferenceCache();
  b.model().RefreshInferenceCache();
  for (int64_t u = 0; u < 5; ++u) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(a.model().Score(u, j), b.model().Score(u, j));
    }
  }
}

TEST(GnmrTrainerTest, AllAblationVariantsTrain) {
  data::Dataset train = TinyTrainSet();
  for (int variant = 0; variant < 3; ++variant) {
    GnmrConfig cfg = FastConfig();
    cfg.epochs = 2;
    if (variant == 1) cfg.use_type_embedding = false;      // GNMR-be
    if (variant == 2) cfg.use_relation_attention = false;  // GNMR-ma
    GnmrTrainer trainer(cfg, train);
    trainer.Train();
    auto scorer = trainer.MakeScorer();
    float s = 0.0f;
    std::vector<int64_t> items = {0};
    scorer->ScoreItems(0, items, &s);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(GnmrTrainerTest, DepthSweepRuns) {
  data::Dataset train = TinyTrainSet();
  for (int64_t depth : {0, 1, 2, 3}) {
    GnmrConfig cfg = FastConfig();
    cfg.num_layers = depth;
    cfg.epochs = 2;
    GnmrTrainer trainer(cfg, train);
    trainer.Train();
    trainer.model().RefreshInferenceCache();
    EXPECT_TRUE(std::isfinite(trainer.model().Score(0, 0)));
  }
}

TEST(GnmrTrainerTest, TracedEpochRecordsTrainingSpansPerLayerPerStep) {
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  GnmrTrainer trainer(cfg, train);
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  trainer.TrainEpoch();
  obs::SetTraceEnabled(false);
  std::map<std::string, int64_t> count;
  for (const obs::TraceEvent& e : obs::TraceSnapshot()) ++count[e.name];
  obs::ClearTrace();
  const int64_t steps = count["train.step"];
  ASSERT_GT(steps, 1);
  for (const char* name : {"train.propagate", "train.backward", "train.adam"}) {
    EXPECT_EQ(count[name], steps) << name;
  }
  for (const char* name :
       {"train.spmm", "train.eta", "train.xi", "train.psi", "train.spmm.bwd",
        "train.eta.bwd", "train.xi.bwd", "train.psi.bwd"}) {
    EXPECT_EQ(count[name], cfg.num_layers * steps) << name;
  }
}

TEST(GnmrTrainerTest, SumNormalizationStaysFinite) {
  // Faithful Eq. 2 sum aggregation must not blow up on a small graph.
  data::Dataset train = TinyTrainSet();
  GnmrConfig cfg = FastConfig();
  cfg.neighbor_norm = graph::NeighborNorm::kSum;
  cfg.epochs = 3;
  GnmrTrainer trainer(cfg, train);
  trainer.Train();
  trainer.model().RefreshInferenceCache();
  EXPECT_TRUE(std::isfinite(trainer.model().Score(0, 0)));
}

}  // namespace
}  // namespace core
}  // namespace gnmr
