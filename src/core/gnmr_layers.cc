#include "src/core/gnmr_layers.h"

#include "src/core/gnmr_fused_ops.h"
#include "src/nn/init.h"
#include "src/util/check.h"

namespace gnmr {
namespace core {

// ------------------------------------------------------ TypeBehaviorEmbedding

TypeBehaviorEmbedding::TypeBehaviorEmbedding(int64_t dim, int64_t channels,
                                             util::Rng* rng) {
  GNMR_CHECK_GT(channels, 0);
  w1_ = ad::Var::Param(nn::XavierUniform(dim, channels, rng));
  b1_ = ad::Var::Param(tensor::Tensor({1, channels}));
  w2_.reserve(static_cast<size_t>(channels));
  for (int64_t c = 0; c < channels; ++c) {
    w2_.push_back(ad::Var::Param(nn::XavierUniform(dim, dim, rng)));
  }
}

ad::Var TypeBehaviorEmbedding::Forward(const ad::Var& s) const {
  return FusedTypeEmbedding(s, w1_, b1_, w2_);
}

std::vector<ad::Var> TypeBehaviorEmbedding::Parameters() const {
  std::vector<ad::Var> out = {w1_, b1_};
  out.insert(out.end(), w2_.begin(), w2_.end());
  return out;
}

// -------------------------------------------------- BehaviorRelationAttention

BehaviorRelationAttention::BehaviorRelationAttention(int64_t dim,
                                                     int64_t heads,
                                                     util::Rng* rng) {
  GNMR_CHECK_GT(heads, 0);
  GNMR_CHECK_EQ(dim % heads, 0) << "heads must divide embedding dim";
  const int64_t head_dim = dim / heads;
  for (int64_t s = 0; s < heads; ++s) {
    q_.push_back(ad::Var::Param(nn::XavierUniform(dim, head_dim, rng)));
    k_.push_back(ad::Var::Param(nn::XavierUniform(dim, head_dim, rng)));
    v_.push_back(ad::Var::Param(nn::XavierUniform(dim, head_dim, rng)));
  }
}

std::vector<ad::Var> BehaviorRelationAttention::Forward(
    const std::vector<ad::Var>& behaviors) const {
  const int64_t num_k = static_cast<int64_t>(behaviors.size());
  return SplitBehaviors(ForwardStacked(StackBehaviors(behaviors), num_k),
                        num_k);
}

ad::Var BehaviorRelationAttention::ForwardStacked(const ad::Var& stack,
                                                  int64_t num_k) const {
  return FusedRelationAttention(stack, num_k, q_, k_, v_);
}

std::vector<ad::Var> BehaviorRelationAttention::Parameters() const {
  std::vector<ad::Var> out;
  out.insert(out.end(), q_.begin(), q_.end());
  out.insert(out.end(), k_.begin(), k_.end());
  out.insert(out.end(), v_.begin(), v_.end());
  return out;
}

// --------------------------------------------------------------- BehaviorGate

BehaviorGate::BehaviorGate(int64_t dim, int64_t hidden_dim, util::Rng* rng) {
  GNMR_CHECK_GT(hidden_dim, 0);
  w3_ = ad::Var::Param(nn::XavierUniform(dim, hidden_dim, rng));
  b2_ = ad::Var::Param(tensor::Tensor({1, hidden_dim}));
  w2_ = ad::Var::Param(nn::XavierUniform(hidden_dim, 1, rng));
  b3_ = ad::Var::Param(tensor::Tensor({1, 1}));
}

ad::Var BehaviorGate::Forward(const std::vector<ad::Var>& behaviors) const {
  return ForwardStacked(StackBehaviors(behaviors),
                        static_cast<int64_t>(behaviors.size()));
}

ad::Var BehaviorGate::ForwardStacked(const ad::Var& stack,
                                     int64_t num_k) const {
  return FusedBehaviorGate(stack, num_k, w3_, b2_, w2_, b3_);
}

std::vector<ad::Var> BehaviorGate::Parameters() const {
  return {w3_, b2_, w2_, b3_};
}

// ------------------------------------------------------------------ GnmrLayer

GnmrLayer::GnmrLayer(const GnmrConfig& config,
                     const graph::MultiBehaviorGraph* graph, util::Rng* rng)
    : config_(&config), graph_(graph) {
  GNMR_CHECK(graph != nullptr);
  int64_t d = config.embedding_dim;
  if (config.use_type_embedding) {
    type_embedding_ =
        std::make_unique<TypeBehaviorEmbedding>(d, config.num_channels, rng);
  }
  if (config.use_relation_attention) {
    relation_attn_ =
        std::make_unique<BehaviorRelationAttention>(d, config.num_heads, rng);
  }
  if (config.use_behavior_gate) {
    int64_t hidden = config.gate_hidden_dim > 0 ? config.gate_hidden_dim : d;
    gate_ = std::make_unique<BehaviorGate>(d, hidden, rng);
  }
}

ad::Var GnmrLayer::Forward(const ad::Var& h) const {
  const int64_t num_k = graph_->num_behaviors();
  ad::Var stack =
      StackedSpmm(graph_->UnifiedAdjacencies(config_->neighbor_norm), h);
  if (type_embedding_) stack = type_embedding_->Forward(stack);
  if (relation_attn_) stack = relation_attn_->ForwardStacked(stack, num_k);
  // Ablation fallback: uniform average across behavior types.
  return gate_ ? gate_->ForwardStacked(stack, num_k)
               : BehaviorMean(stack, num_k);
}

std::vector<ad::Var> GnmrLayer::Parameters() const {
  std::vector<ad::Var> out;
  auto append = [&out](const nn::Module* m) {
    if (m == nullptr) return;
    auto p = m->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  };
  append(type_embedding_.get());
  append(relation_attn_.get());
  append(gate_.get());
  return out;
}

}  // namespace core
}  // namespace gnmr
