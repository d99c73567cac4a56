#include "src/tensor/autodiff.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "src/tensor/backend.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/sanitizer.h"

// __GLIBC__ comes from the C++ headers above.
#if defined(__GLIBC__) && !GNMR_SANITIZER_MALLOC
#include <malloc.h>
#define GNMR_PIN_GLIBC_HEAP 1
#endif

namespace gnmr {
namespace ad {

namespace {
std::atomic<uint64_t> g_next_node_id{1};

/// Pins glibc's heap policy the first time a process runs a backward pass
/// (README "Step memory"). By default glibc serves each multi-MB step
/// tensor with a fresh mmap, or trims the freed heap top back to the
/// kernel, so every training step re-faults and re-zeroes the same
/// buffers. With these two settings the freed buffers stay in the heap
/// and the next step reuses them: the process keeps its high-water mark
/// resident. Serving never runs Backward, so it keeps glibc's defaults.
/// A sanitizer's own malloc ignores these settings, so they are skipped.
void PinTrainingHeapPolicy() {
#ifdef GNMR_PIN_GLIBC_HEAP
  static std::once_flag once;
  std::call_once(once, [] {
    constexpr int kMmapThreshold = 32 << 20;  // glibc's 64-bit maximum
    constexpr int kTrimThreshold = 256 << 20;
    if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1) {
      GNMR_LOG(WARNING) << "mallopt(M_MMAP_THRESHOLD, " << kMmapThreshold
                        << ") was rejected; step buffers stay mmap-backed";
    }
    if (mallopt(M_TRIM_THRESHOLD, kTrimThreshold) != 1) {
      GNMR_LOG(WARNING) << "mallopt(M_TRIM_THRESHOLD, " << kTrimThreshold
                        << ") was rejected; the heap top is trimmed";
    }
  });
#endif
}
}  // namespace

void Node::EnsureGrad() {
  if (grad.empty()) grad = tensor::Tensor(value.shape());
}

void Node::AccumulateGrad(tensor::Tensor g) {
  GNMR_CHECK(g.shape() == value.shape())
      << "grad shape " << g.ShapeString() << " vs value "
      << value.ShapeString();
  if (grad.empty()) {
    grad = g.owns_storage() ? std::move(g) : g.OwnedCopy();
    return;
  }
  tensor::GetBackend().EltwiseZip(grad.data(), std::as_const(g).data(),
                                  grad.data(),
                                  grad.numel(),
                                  tensor::ZipLoop<&tensor::elops::AddEl>,
                                  0.0f);
}

void Node::AccumulateGradCols(const tensor::Tensor& g, int64_t start) {
  GNMR_CHECK_EQ(value.rank(), 2);
  GNMR_CHECK_EQ(g.rank(), 2);
  GNMR_CHECK_EQ(g.rows(), value.rows());
  GNMR_CHECK(start >= 0 && start + g.cols() <= value.cols())
      << "column slice [" << start << ", " << start + g.cols()
      << ") of " << value.ShapeString();
  const bool first = grad.empty();
  EnsureGrad();
  const int64_t n = g.rows();
  const int64_t len = g.cols();
  const int64_t m = grad.cols();
  const float* sd = g.data();
  float* gd = grad.data() + start;
  for (int64_t i = 0; i < n; ++i) {
    if (first) {
      std::copy(sd + i * len, sd + (i + 1) * len, gd + i * m);
    } else {
      for (int64_t j = 0; j < len; ++j) gd[i * m + j] += sd[i * len + j];
    }
  }
}

Var::Var(tensor::Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->id = g_next_node_id.fetch_add(1, std::memory_order_relaxed);
}

const tensor::Tensor& Var::value() const {
  GNMR_CHECK(defined()) << "value() on a null Var";
  return node_->value;
}

tensor::Tensor* Var::mutable_value() {
  GNMR_CHECK(defined()) << "mutable_value() on a null Var";
  return &node_->value;
}

const tensor::Tensor& Var::grad() const {
  GNMR_CHECK(has_grad()) << "grad() on a Var without gradient";
  return node_->grad;
}

void Var::ZeroGrad() {
  GNMR_CHECK(defined());
  if (node_->has_grad()) node_->grad.Fill(0.0f);
}

Var MakeOpVar(tensor::Tensor value, std::vector<Var> inputs,
              std::function<void(Node*)> backward) {
  bool needs_grad = false;
  for (const Var& v : inputs) {
    GNMR_CHECK(v.defined()) << "op input is a null Var";
    needs_grad = needs_grad || v.requires_grad();
  }
  Var out(std::move(value), needs_grad);
  if (needs_grad) {
    auto node = out.node();
    node->inputs.reserve(inputs.size());
    for (const Var& v : inputs) node->inputs.push_back(v.node());
    node->backward_fn = std::move(backward);
  }
  return out;
}

void Backward(const Var& root) {
  GNMR_CHECK(root.defined());
  GNMR_CHECK_EQ(root.value().numel(), 1)
      << "Backward() root must be scalar; use BackwardWithGrad";
  BackwardWithGrad(root, tensor::Tensor::Ones(root.value().shape()));
}

void BackwardWithGrad(const Var& root, const tensor::Tensor& seed) {
  PinTrainingHeapPolicy();
  GNMR_CHECK(root.defined());
  GNMR_CHECK(seed.shape() == root.value().shape());
  if (!root.requires_grad()) return;

  // Iterative post-order DFS to collect reachable grad-requiring nodes.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  Node* root_node = root.node().get();
  stack.push_back({root_node, 0});
  visited.insert(root_node);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.node->inputs.size()) {
      Node* child = f.node->inputs[f.next_input++].get();
      if (child->requires_grad && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  // Post-order gives children before parents; run parents first.
  // Creation ids are monotone along dataflow, so sorting by id descending is
  // also a valid reverse-topological order and keeps execution deterministic
  // regardless of DFS tie-breaking.
  std::sort(order.begin(), order.end(),
            [](const Node* a, const Node* b) { return a->id > b->id; });

  root_node->AccumulateGrad(seed);
  for (Node* n : order) {
    if (n->backward_fn && n->has_grad()) {
      n->backward_fn(n);
    }
  }
}

}  // namespace ad
}  // namespace gnmr
