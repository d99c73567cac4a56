// Forward-only math kernels on raw Tensors. The autodiff layer (ad_ops.h)
// wraps these with gradient rules; tests exercise them directly.
//
// The hot entry points (MatMul, GatherRows, ScatterAddRows, RowDot, the
// elementwise ops and the whole-tensor reductions) validate shapes here
// and dispatch the actual loops through the active tensor::KernelBackend
// (backend.h); shape plumbing (transpose/concat/slice/softmax) stays
// local.
//
// Broadcasting: binary elementwise ops follow NumPy semantics restricted to
// rank <= 2 — shapes are right-aligned, each dim must match or be 1.
// Examples of legal pairs: [n,d]+[n,d], [n,d]+[1,d], [n,d]+[d], [n,d]+[n,1],
// [n,d]+[1].
#ifndef GNMR_TENSOR_TENSOR_OPS_H_
#define GNMR_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "src/tensor/tensor.h"

namespace gnmr {
namespace tensor {
namespace ops {

/// Shape resulting from broadcasting `a` against `b`; checks compatibility.
std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b);

/// Sums `t` down to `target_shape` (inverse of broadcasting); used by
/// gradient rules of broadcast ops. `target_shape` must be broadcastable to
/// t.shape().
Tensor ReduceToShape(const Tensor& t, const std::vector<int64_t>& target_shape);

// Binary elementwise with broadcasting ---------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
/// Division; denominator entries must be nonzero.
Tensor Div(const Tensor& a, const Tensor& b);

// Scalar forms ----------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

// Linear algebra --------------------------------------------------------------

/// [n,k] x [k,m] -> [n,m].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// [n,k] x [m,k]^T -> [n,m]; bit-identical to MatMul(a, Transpose(b)).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// [k,n]^T x [k,m] -> [n,m]; bit-identical to MatMul(Transpose(a), b).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// Rank-2 transpose.
Tensor Transpose(const Tensor& a);

// Elementwise unary -----------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float alpha);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs are clamped below at `eps` for stability.
Tensor Log(const Tensor& a, float eps = 1e-12f);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
/// log(1 + e^x), numerically stable.
Tensor Softplus(const Tensor& a);

// Row-wise softmax ------------------------------------------------------------

/// Softmax over the last axis of a rank-2 tensor (per row), max-subtracted.
Tensor SoftmaxRows(const Tensor& a);
/// Log-softmax over the last axis of a rank-2 tensor.
Tensor LogSoftmaxRows(const Tensor& a);

// Reductions ------------------------------------------------------------------

/// Sum of all elements -> shape {1}.
Tensor SumAll(const Tensor& a);
/// Mean of all elements -> shape {1}.
Tensor MeanAll(const Tensor& a);
/// Sum over `axis` (0 or 1) of a rank-2 tensor, keeping the reduced dim as 1:
/// axis=0: [n,d]->[1,d]; axis=1: [n,d]->[n,1].
Tensor SumAxis(const Tensor& a, int axis);
/// Mean over `axis` with the same shape conventions as SumAxis.
Tensor MeanAxis(const Tensor& a, int axis);

// Shape manipulation ----------------------------------------------------------

/// Concatenates rank-2 tensors along columns; all must share rows.
Tensor ConcatCols(const std::vector<const Tensor*>& parts);
/// Concatenates rank-2 tensors along rows; all must share cols.
Tensor ConcatRows(const std::vector<const Tensor*>& parts);
/// Column slice [start, start+len) of a rank-2 tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);
/// Row slice [start, start+len) of a rank-2 tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);

// Indexed access --------------------------------------------------------------

/// Gathers rows of a rank-2 tensor: out[r, :] = a[idx[r], :].
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& idx);
/// target[idx[r], :] += src[r, :]. Duplicate indices accumulate.
void ScatterAddRows(Tensor* target, const std::vector<int64_t>& idx,
                    const Tensor& src);

/// Row-wise dot product of two same-shape rank-2 tensors -> [n,1].
Tensor RowDot(const Tensor& a, const Tensor& b);

}  // namespace ops
}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_TENSOR_OPS_H_
