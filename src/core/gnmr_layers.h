// The three building blocks of one GNMR propagation layer (Section III):
//
//   eta  (Eq. 2)  TypeBehaviorEmbedding — gated C-channel projection of the
//                 per-behavior neighborhood summary ("memory" module).
//   xi   (Eq. 3)  BehaviorRelationAttention — multi-head dot-product
//                 attention across the K behavior types at every node,
//                 with residual.
//   psi  (Eq. 4-5) BehaviorGate — softmax gating network fusing the K
//                 recalibrated type-specific embeddings.
//
// GnmrLayer wires them together over the unified [users; items] node space
// in the stacked layout: the K per-behavior summaries are one [K*N, d]
// tensor (block k = rows [k*N, (k+1)*N)), and each of eta, xi and psi is
// one fused tape op over it (gnmr_fused_ops.h) — a wide MatMul against the
// module's column-packed weights plus one per-row body. The vector
// Forward overloads of xi and psi are thin stack/split wrappers around
// ForwardStacked for callers that hold K separate tensors.
#ifndef GNMR_CORE_GNMR_LAYERS_H_
#define GNMR_CORE_GNMR_LAYERS_H_

#include <memory>
#include <vector>

#include "src/core/gnmr_config.h"
#include "src/graph/interaction_graph.h"
#include "src/nn/module.h"
#include "src/util/rng.h"

namespace gnmr {
namespace core {

/// eta (Eq. 2): out = sum_c alpha_c * (s W2_c), alpha = ReLU(s W1 + b1),
/// where s is the [N,d] neighborhood summary of one behavior type.
/// Parameters are shared across behavior types, as in the paper's
/// equations (type specificity enters through the per-behavior input).
class TypeBehaviorEmbedding : public nn::Module {
 public:
  TypeBehaviorEmbedding(int64_t dim, int64_t channels, util::Rng* rng);

  /// s: [R, d] -> [R, d], row by row, so R may be one behavior's N rows
  /// or the whole [K*N, d] stack.
  ad::Var Forward(const ad::Var& s) const;

  std::vector<ad::Var> Parameters() const override;

 private:
  ad::Var w1_;                 // [d, C]
  ad::Var b1_;                 // [1, C]
  std::vector<ad::Var> w2_;    // C x [d, d]
};

/// xi (Eq. 3): per node, multi-head attention across the K behavior-type
/// embeddings; output is the concatenated head messages plus a residual
/// connection to the original type-specific embedding.
class BehaviorRelationAttention : public nn::Module {
 public:
  BehaviorRelationAttention(int64_t dim, int64_t heads, util::Rng* rng);

  /// Inputs: K tensors [N, d]. Returns K recalibrated tensors [N, d].
  std::vector<ad::Var> Forward(const std::vector<ad::Var>& behaviors) const;

  /// The [K*N, d] stack of K behaviors -> the recalibrated stack.
  ad::Var ForwardStacked(const ad::Var& stack, int64_t num_k) const;

  std::vector<ad::Var> Parameters() const override;

 private:
  std::vector<ad::Var> q_;  // S x [d, d/S]
  std::vector<ad::Var> k_;  // S x [d, d/S]
  std::vector<ad::Var> v_;  // S x [d, d/S]
};

/// psi (Eq. 4-5): gamma_k = w2^T ReLU(W3 H_k + b2) + b3; softmax over k;
/// output = sum_k gamma_hat_k * H_k.
class BehaviorGate : public nn::Module {
 public:
  BehaviorGate(int64_t dim, int64_t hidden_dim, util::Rng* rng);

  /// Inputs: K tensors [N, d]. Returns the fused [N, d] embedding.
  ad::Var Forward(const std::vector<ad::Var>& behaviors) const;

  /// The [K*N, d] stack of K behaviors -> the fused [N, d] embedding.
  ad::Var ForwardStacked(const ad::Var& stack, int64_t num_k) const;

  std::vector<ad::Var> Parameters() const override;

 private:
  ad::Var w3_;  // [d, d']
  ad::Var b2_;  // [1, d']
  ad::Var w2_;  // [d', 1]
  ad::Var b3_;  // [1, 1]
};

/// One full GNMR propagation layer over the unified node space.
class GnmrLayer : public nn::Module {
 public:
  /// `graph` must outlive the layer (it owns the cached sparse operators).
  GnmrLayer(const GnmrConfig& config, const graph::MultiBehaviorGraph* graph,
            util::Rng* rng);

  /// H: [N, d] node embeddings -> next-layer [N, d] embeddings.
  ad::Var Forward(const ad::Var& h) const;

  std::vector<ad::Var> Parameters() const override;

 private:
  const GnmrConfig* config_;
  const graph::MultiBehaviorGraph* graph_;
  std::unique_ptr<TypeBehaviorEmbedding> type_embedding_;     // eta
  std::unique_ptr<BehaviorRelationAttention> relation_attn_;  // xi
  std::unique_ptr<BehaviorGate> gate_;                        // psi
};

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_GNMR_LAYERS_H_
