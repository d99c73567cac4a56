// Differentiable operations on Vars. Every op here has an exact gradient
// rule verified by finite-difference tests (tests/tensor_grad_test.cc).
#ifndef GNMR_TENSOR_AD_OPS_H_
#define GNMR_TENSOR_AD_OPS_H_

#include <vector>

#include "src/tensor/autodiff.h"
#include "src/tensor/sparse.h"
#include "src/util/rng.h"

namespace gnmr {
namespace ad {

// Binary elementwise (broadcasting per tensor_ops.h rules) -------------------

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);

// Scalar forms ----------------------------------------------------------------

Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);
Var Neg(const Var& a);

// Linear algebra --------------------------------------------------------------

/// [n,k] x [k,m] -> [n,m].
Var MatMul(const Var& a, const Var& b);
/// Rank-2 transpose.
Var Transpose(const Var& a);
/// Sparse-dense product out = A * x. `a` and `a_transposed` must stay alive
/// until Backward() completes (the graph module owns them for the duration
/// of training).
Var Spmm(const tensor::CsrMatrix* a, const tensor::CsrMatrix* a_transposed,
         const Var& x);

// Elementwise unary -----------------------------------------------------------

Var Relu(const Var& a);
Var LeakyRelu(const Var& a, float alpha);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
/// Natural log with input clamping at `eps`; gradient is 0 where clamped.
Var Log(const Var& a, float eps = 1e-12f);
Var Sqrt(const Var& a);
Var Square(const Var& a);
Var Softplus(const Var& a);

// Softmax ---------------------------------------------------------------------

/// Row-wise softmax of a rank-2 tensor.
Var SoftmaxRows(const Var& a);
/// Row-wise log-softmax of a rank-2 tensor.
Var LogSoftmaxRows(const Var& a);

// Reductions ------------------------------------------------------------------

Var SumAll(const Var& a);
Var MeanAll(const Var& a);
/// axis=0: [n,d]->[1,d]; axis=1: [n,d]->[n,1].
Var SumAxis(const Var& a, int axis);
Var MeanAxis(const Var& a, int axis);

// Shape manipulation ----------------------------------------------------------

Var ConcatCols(const std::vector<Var>& parts);
Var ConcatRows(const std::vector<Var>& parts);
Var SliceCols(const Var& a, int64_t start, int64_t len);
Var SliceRows(const Var& a, int64_t start, int64_t len);
Var Reshape(const Var& a, std::vector<int64_t> new_shape);

// Indexed ---------------------------------------------------------------------

/// out[r,:] = table[idx[r],:]; gradient scatter-adds into the table.
Var GatherRows(const Var& table, std::vector<int64_t> idx);

/// Row-wise dot product of same-shape rank-2 tensors -> [n,1].
Var RowDot(const Var& a, const Var& b);

// Regularisation --------------------------------------------------------------

/// Inverted dropout: zeroes entries with prob p and scales the rest by
/// 1/(1-p). Identity when !training or p == 0.
Var Dropout(const Var& a, float p, bool training, util::Rng* rng);

// Loss conveniences (compositions of the primitives above) --------------------

/// mean over entries of max(0, margin - pos + neg); pos/neg both [n,1].
/// This is Eq. 7 of the GNMR paper (margin = 1 there).
Var PairwiseHingeLoss(const Var& pos_scores, const Var& neg_scores,
                      float margin = 1.0f);

/// Pairwise BPR loss: mean(-log sigmoid(pos - neg)).
Var BprLoss(const Var& pos_scores, const Var& neg_scores);

/// mean(softplus(logits) - logits * targets); targets in [0,1].
Var BceWithLogitsLoss(const Var& logits, const Var& targets);

/// mean((pred - target)^2).
Var MseLoss(const Var& pred, const Var& target);

}  // namespace ad
}  // namespace gnmr

#endif  // GNMR_TENSOR_AD_OPS_H_
