// Reverse-mode automatic differentiation over dense Tensors.
//
// A Var is a handle to a node in an implicitly-built computation graph.
// Calling an op in ad_ops.h creates a new node whose backward closure knows
// how to push gradients to its inputs. Backward(root) runs the closures in
// reverse topological order.
//
// The graph is rebuilt on every training step (define-by-run); parameter
// Vars persist across steps and accumulate gradients until ZeroGrad().
#ifndef GNMR_TENSOR_AUTODIFF_H_
#define GNMR_TENSOR_AUTODIFF_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace gnmr {
namespace ad {

/// Graph node: value, accumulated gradient, inputs, and the backward rule.
/// Library users interact with Var; Node is exposed for op implementations.
class Node {
 public:
  tensor::Tensor value;
  /// Lazily allocated gradient buffer with value's shape.
  tensor::Tensor grad;
  bool requires_grad = false;
  /// Creation sequence number; defines the topological order.
  uint64_t id = 0;
  std::vector<std::shared_ptr<Node>> inputs;
  /// Pushes this node's grad into inputs' grads. Empty for leaves.
  std::function<void(Node*)> backward_fn;

  /// Allocates grad as zeros if not yet allocated.
  void EnsureGrad();
  /// grad += g. g must match value's shape exactly (no broadcasting here;
  /// callers reduce first). The first gradient is adopted, not added to
  /// zeros: a temporary passed by rvalue is moved in, anything else is
  /// copied, and a read-only view (Tensor::FromView) is always copied into
  /// owned storage so later in-place adds can write it. Adoption keeps a
  /// -0.0f that zero-plus-add would have turned into +0.0f; every nonzero
  /// value is identical. Later gradients add in place through the
  /// backend's EltwiseZip.
  void AccumulateGrad(tensor::Tensor g);
  /// grad[:, start : start + g.cols()) += g for a rank-2 grad: the backward
  /// of a column slice, without materialising a zero-padded full-width
  /// gradient. Columns outside the slice are left as they are (zeros when
  /// this is the first gradient).
  void AccumulateGradCols(const tensor::Tensor& g, int64_t start);
  bool has_grad() const { return !grad.empty(); }
};

/// Value-semantics handle to a graph Node.
class Var {
 public:
  /// Null handle; most operations on it abort.
  Var() = default;

  /// Wraps a tensor as a leaf node.
  explicit Var(tensor::Tensor value, bool requires_grad = false);

  /// Leaf that participates in optimisation (requires_grad = true).
  static Var Param(tensor::Tensor value) { return Var(std::move(value), true); }
  /// Leaf excluded from differentiation.
  static Var Constant(tensor::Tensor value) {
    return Var(std::move(value), false);
  }

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const;
  /// In-place value mutation (optimiser updates). Never changes shape.
  tensor::Tensor* mutable_value();
  /// Accumulated gradient; requires has_grad().
  const tensor::Tensor& grad() const;
  bool has_grad() const { return node_ != nullptr && node_->has_grad(); }
  bool requires_grad() const { return node_ != nullptr && node_->requires_grad; }
  /// Clears the gradient buffer (keeps allocation).
  void ZeroGrad();

  const std::vector<int64_t>& shape() const { return value().shape(); }

  std::shared_ptr<Node> node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// Creates an op-output Var. `backward` receives the output node and must
/// push gradients into the inputs. The output requires grad iff any input
/// does; backward closures are dropped otherwise (no-grad fast path).
Var MakeOpVar(tensor::Tensor value, std::vector<Var> inputs,
              std::function<void(Node*)> backward);

/// Runs reverse-mode accumulation from `root`, which must be a scalar
/// (numel == 1). Seeds d(root)/d(root) = 1.
void Backward(const Var& root);

/// As Backward(root) but seeds with an explicit gradient of root's shape.
void BackwardWithGrad(const Var& root, const tensor::Tensor& seed);

}  // namespace ad
}  // namespace gnmr

#endif  // GNMR_TENSOR_AUTODIFF_H_
