// Fused autodiff ops of one GNMR propagation layer (gnmr_layers.h).
//
// Stacked layout: the K per-behavior [N, d] tensors of a layer live in
// one [K*N, d] tensor, block k = rows [k*N, (k+1)*N). Each op below is ONE
// tape node with a hand-written backward: a wide MatMul against the
// column-packed weights of every behavior at once, plus one per-row body
// run through KernelBackend::RunRows (rows of eta; nodes of xi, psi and the
// mean, each node task owning its K stacked rows). The unfused
// composition of small ad ops these replace is kept as the test reference
// in tests/gnmr_test.cc; forward values are bitwise equal to it on every
// backend:
//   - a packed MatMul computes each output element exactly as the
//     per-weight MatMul did (same ascending-k sum, same zero skip);
//   - the row bodies repeat the reference's per-element float expressions
//     in its order (products before sums, sums in ascending channel /
//     behavior order starting from the first term, the softmax of
//     tensor::ops::SoftmaxRows, the lane-partial dot of ad::RowDot).
//
// Gradients are bit-identical across backends and worker counts (same
// row bodies, MatMul backward kernels and reductions), but some sums are
// associated differently from the unfused tape; README.md ("Model and
// deviations from the paper") lists them.
//
// Parameters stay the layer modules' own ad::Vars: the ops pack them per
// call (a few KB) and split the packed gradient back onto each of them.
#ifndef GNMR_CORE_GNMR_FUSED_OPS_H_
#define GNMR_CORE_GNMR_FUSED_OPS_H_

#include <vector>

#include "src/graph/interaction_graph.h"
#include "src/tensor/autodiff.h"

namespace gnmr {
namespace core {

/// [N', d] h -> [K*N, d]: block k = adj[k]->forward * h, where adj[k] is
/// [N, N']. The backward adds adj[k]->backward * G_k into h's gradient for
/// k = K-1 down to 0 — the order K separate Spmm nodes accumulated in.
/// The operators must outlive Backward().
ad::Var StackedSpmm(const std::vector<const graph::SparseOp*>& adj,
                    const ad::Var& h);

/// eta (Eq. 2) over the rows of s [R, d]: out = sum_c alpha_c * (s W2_c),
/// alpha = ReLU(s W1 + b1). One MatMul against [W1 | W2_0 .. W2_{C-1}]
/// ([d, C + C*d]), then the gated channel sum in ascending c per row.
ad::Var FusedTypeEmbedding(const ad::Var& s, const ad::Var& w1,
                           const ad::Var& b1, const std::vector<ad::Var>& w2);

/// xi (Eq. 3) over a [K*N, d] stack with S heads: q/k/v hold S [d, d/S]
/// projections each. One MatMul against [q_0..q_{S-1} | k_.. | v_..]
/// ([d, 3d]), then per node and head the K x K logits (lane-partial dot
/// times 1/sqrt(d/S)), the softmax over k', the weighted value sum and
/// the residual. Returns the recalibrated [K*N, d] stack.
ad::Var FusedRelationAttention(const ad::Var& stack, int64_t num_k,
                               const std::vector<ad::Var>& q,
                               const std::vector<ad::Var>& k,
                               const std::vector<ad::Var>& v);

/// psi (Eqs. 4-5) over a [K*N, d] stack: hidden = ReLU(X W3 + b2) in one
/// MatMul, logit = hidden w2 + b3 per stacked row, then per node the
/// softmax over the K logits and the gated sum of the K rows -> [N, d].
ad::Var FusedBehaviorGate(const ad::Var& stack, int64_t num_k,
                          const ad::Var& w3, const ad::Var& b2,
                          const ad::Var& w2, const ad::Var& b3);

/// Ablation fallback without psi: (sum_k X_k) * (1/K), summed in
/// ascending k -> [N, d].
ad::Var BehaviorMean(const ad::Var& stack, int64_t num_k);

/// K same-shape [N, d] tensors -> the [K*N, d] stack (ad::ConcatRows).
ad::Var StackBehaviors(const std::vector<ad::Var>& behaviors);

/// The [K*N, d] stack -> its K [N, d] blocks (ad::SliceRows each).
std::vector<ad::Var> SplitBehaviors(const ad::Var& stack, int64_t num_k);

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_GNMR_FUSED_OPS_H_
