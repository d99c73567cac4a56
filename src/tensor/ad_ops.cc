#include "src/tensor/ad_ops.h"

#include <cmath>
#include <utility>

#include "src/tensor/backend.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace ad {

namespace top = tensor::ops;
using tensor::Tensor;

namespace {

// Backward rules of the unary activations are elementwise zips of the
// upstream grad against the cached input/output; they dispatch through
// the kernel backend like their forward counterparts. The element bodies
// (elops::ReluBwdEl, ...) live in element_ops.h — shared with the SIMD
// backend's vector twins — and are baked into the shared tensor::ZipLoop
// instantiations (backend.h) so the backend pays one indirect call per
// range, not per element. The zip convention is x = cached forward value,
// y = upstream gradient.
using ElZipFn = float (*)(float a, float g, float p);

template <ElZipFn F>
Tensor BackwardZip(const Tensor& a, const Tensor& grad, float p = 0.0f) {
  Tensor out(grad.shape());
  tensor::GetBackend().EltwiseZip(a.data(), grad.data(), out.data(),
                                  grad.numel(), tensor::ZipLoop<F>, p);
  return out;
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  Tensor out = top::Add(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::ReduceToShape(self->grad,
                                                a_node->value.shape()));
    }
    if (b_node->requires_grad) {
      b_node->AccumulateGrad(top::ReduceToShape(self->grad,
                                                b_node->value.shape()));
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = top::Sub(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::ReduceToShape(self->grad,
                                                a_node->value.shape()));
    }
    if (b_node->requires_grad) {
      b_node->AccumulateGrad(
          top::ReduceToShape(top::Neg(self->grad), b_node->value.shape()));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = top::Mul(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::ReduceToShape(
          top::Mul(self->grad, b_node->value), a_node->value.shape()));
    }
    if (b_node->requires_grad) {
      b_node->AccumulateGrad(top::ReduceToShape(
          top::Mul(self->grad, a_node->value), b_node->value.shape()));
    }
  });
}

Var Div(const Var& a, const Var& b) {
  Tensor out = top::Div(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::ReduceToShape(
          top::Div(self->grad, b_node->value), a_node->value.shape()));
    }
    if (b_node->requires_grad) {
      // d/db (a/b) = -a / b^2
      Tensor db = top::Neg(top::Div(top::Mul(self->grad, a_node->value),
                                    top::Square(b_node->value)));
      b_node->AccumulateGrad(top::ReduceToShape(db, b_node->value.shape()));
    }
  });
}

Var AddScalar(const Var& a, float s) {
  Tensor out = top::AddScalar(a.value(), s);
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    self->inputs[0]->AccumulateGrad(self->grad);
  });
}

Var MulScalar(const Var& a, float s) {
  Tensor out = top::MulScalar(a.value(), s);
  return MakeOpVar(std::move(out), {a}, [s](Node* self) {
    self->inputs[0]->AccumulateGrad(top::MulScalar(self->grad, s));
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var MatMul(const Var& a, const Var& b) {
  Tensor out = top::MatMul(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::MatMulTransB(self->grad, b_node->value));
    }
    if (b_node->requires_grad) {
      b_node->AccumulateGrad(top::MatMulTransA(a_node->value, self->grad));
    }
  });
}

Var Transpose(const Var& a) {
  Tensor out = top::Transpose(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    self->inputs[0]->AccumulateGrad(top::Transpose(self->grad));
  });
}

Var Spmm(const tensor::CsrMatrix* a, const tensor::CsrMatrix* a_transposed,
         const Var& x) {
  GNMR_CHECK(a != nullptr && a_transposed != nullptr);
  GNMR_CHECK_EQ(a->rows(), a_transposed->cols());
  GNMR_CHECK_EQ(a->cols(), a_transposed->rows());
  Tensor out = top::Spmm(*a, x.value());
  return MakeOpVar(std::move(out), {x}, [a_transposed](Node* self) {
    self->inputs[0]->AccumulateGrad(top::Spmm(*a_transposed, self->grad));
  });
}

Var Relu(const Var& a) {
  Tensor out = top::Relu(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(
        BackwardZip<&tensor::elops::ReluBwdEl>(a_node->value, self->grad));
  });
}

Var LeakyRelu(const Var& a, float alpha) {
  Tensor out = top::LeakyRelu(a.value(), alpha);
  return MakeOpVar(std::move(out), {a}, [alpha](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(BackwardZip<&tensor::elops::LeakyReluBwdEl>(
        a_node->value, self->grad, alpha));
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = top::Sigmoid(a.value());
  Tensor y = out;  // cache output for backward
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    self->inputs[0]->AccumulateGrad(
        BackwardZip<&tensor::elops::SigmoidBwdEl>(y, self->grad));
  });
}

Var Tanh(const Var& a) {
  Tensor out = top::Tanh(a.value());
  Tensor y = out;
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    self->inputs[0]->AccumulateGrad(
        BackwardZip<&tensor::elops::TanhBwdEl>(y, self->grad));
  });
}

Var Exp(const Var& a) {
  Tensor out = top::Exp(a.value());
  Tensor y = out;
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    self->inputs[0]->AccumulateGrad(top::Mul(self->grad, y));
  });
}

Var Log(const Var& a, float eps) {
  Tensor out = top::Log(a.value(), eps);
  return MakeOpVar(std::move(out), {a}, [eps](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(
        BackwardZip<&tensor::elops::LogBwdEl>(a_node->value, self->grad, eps));
  });
}

Var Sqrt(const Var& a) {
  Tensor out = top::Sqrt(a.value());
  Tensor y = out;
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    self->inputs[0]->AccumulateGrad(
        BackwardZip<&tensor::elops::SqrtBwdEl>(y, self->grad));
  });
}

Var Square(const Var& a) {
  Tensor out = top::Square(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(
        top::MulScalar(top::Mul(self->grad, a_node->value), 2.0f));
  });
}

Var Softplus(const Var& a) {
  Tensor out = top::Softplus(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(
        top::Mul(self->grad, top::Sigmoid(a_node->value)));
  });
}

Var SoftmaxRows(const Var& a) {
  Tensor out = top::SoftmaxRows(a.value());
  Tensor y = out;
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    // da = y * (g - rowsum(g * y))
    Tensor gy = top::Mul(self->grad, y);
    Tensor row = top::SumAxis(gy, 1);                 // [n,1]
    Tensor da = top::Mul(y, top::Sub(self->grad, row));
    self->inputs[0]->AccumulateGrad(std::move(da));
  });
}

Var LogSoftmaxRows(const Var& a) {
  Tensor out = top::LogSoftmaxRows(a.value());
  Tensor y = out;
  return MakeOpVar(std::move(out), {a}, [y = std::move(y)](Node* self) {
    // da = g - softmax(a) * rowsum(g)
    Tensor softmax = top::Exp(y);
    Tensor row = top::SumAxis(self->grad, 1);         // [n,1]
    Tensor da = top::Sub(self->grad, top::Mul(softmax, row));
    self->inputs[0]->AccumulateGrad(std::move(da));
  });
}

Var SumAll(const Var& a) {
  Tensor out = top::SumAll(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    float g = self->grad.data()[0];
    a_node->AccumulateGrad(Tensor::Full(a_node->value.shape(), g));
  });
}

Var MeanAll(const Var& a) {
  Tensor out = top::MeanAll(a.value());
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    float g = self->grad.data()[0] /
              static_cast<float>(a_node->value.numel());
    a_node->AccumulateGrad(Tensor::Full(a_node->value.shape(), g));
  });
}

Var SumAxis(const Var& a, int axis) {
  Tensor out = top::SumAxis(a.value(), axis);
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    // Broadcast the reduced grad back to input shape.
    Tensor zeros(a_node->value.shape());
    a_node->AccumulateGrad(top::Add(zeros, self->grad));
  });
}

Var MeanAxis(const Var& a, int axis) {
  Tensor out = top::MeanAxis(a.value(), axis);
  float denom = axis == 0 ? static_cast<float>(a.value().rows())
                          : static_cast<float>(a.value().cols());
  return MakeOpVar(std::move(out), {a}, [denom](Node* self) {
    Node* a_node = self->inputs[0].get();
    Tensor zeros(a_node->value.shape());
    a_node->AccumulateGrad(
        top::Add(zeros, top::MulScalar(self->grad, 1.0f / denom)));
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  GNMR_CHECK(!parts.empty());
  std::vector<const Tensor*> raw;
  raw.reserve(parts.size());
  for (const Var& p : parts) raw.push_back(&p.value());
  Tensor out = top::ConcatCols(raw);
  return MakeOpVar(std::move(out), parts, [](Node* self) {
    int64_t off = 0;
    for (auto& in : self->inputs) {
      int64_t w = in->value.cols();
      if (in->requires_grad) {
        in->AccumulateGrad(top::SliceCols(self->grad, off, w));
      }
      off += w;
    }
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  GNMR_CHECK(!parts.empty());
  std::vector<const Tensor*> raw;
  raw.reserve(parts.size());
  for (const Var& p : parts) raw.push_back(&p.value());
  Tensor out = top::ConcatRows(raw);
  return MakeOpVar(std::move(out), parts, [](Node* self) {
    int64_t off = 0;
    for (auto& in : self->inputs) {
      int64_t h = in->value.rows();
      if (in->requires_grad) {
        in->AccumulateGrad(top::SliceRows(self->grad, off, h));
      }
      off += h;
    }
  });
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  Tensor out = top::SliceCols(a.value(), start, len);
  return MakeOpVar(std::move(out), {a}, [start](Node* self) {
    self->inputs[0]->AccumulateGradCols(self->grad, start);
  });
}

Var SliceRows(const Var& a, int64_t start, int64_t len) {
  Tensor out = top::SliceRows(a.value(), start, len);
  return MakeOpVar(std::move(out), {a}, [start, len](Node* self) {
    Node* a_node = self->inputs[0].get();
    Tensor da(a_node->value.shape());
    int64_t m = da.cols();
    std::copy(self->grad.data(), self->grad.data() + len * m,
              da.data() + start * m);
    a_node->AccumulateGrad(std::move(da));
  });
}

Var Reshape(const Var& a, std::vector<int64_t> new_shape) {
  Tensor out = a.value().Reshaped(new_shape);
  return MakeOpVar(std::move(out), {a}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    a_node->AccumulateGrad(self->grad.Reshaped(a_node->value.shape()));
  });
}

Var GatherRows(const Var& table, std::vector<int64_t> idx) {
  Tensor out = top::GatherRows(table.value(), idx);
  return MakeOpVar(std::move(out), {table},
                   [idx = std::move(idx)](Node* self) {
                     Node* t = self->inputs[0].get();
                     Tensor dt(t->value.shape());
                     top::ScatterAddRows(&dt, idx, self->grad);
                     t->AccumulateGrad(std::move(dt));
                   });
}

Var RowDot(const Var& a, const Var& b) {
  Tensor out = top::RowDot(a.value(), b.value());
  return MakeOpVar(std::move(out), {a, b}, [](Node* self) {
    Node* a_node = self->inputs[0].get();
    Node* b_node = self->inputs[1].get();
    // grad is [n,1]; broadcast-multiply against the other operand.
    if (a_node->requires_grad) {
      a_node->AccumulateGrad(top::Mul(b_node->value, self->grad));
    }
    if (b_node->requires_grad) {
      b_node->AccumulateGrad(top::Mul(a_node->value, self->grad));
    }
  });
}

Var Dropout(const Var& a, float p, bool training, util::Rng* rng) {
  GNMR_CHECK(p >= 0.0f && p < 1.0f) << "dropout rate " << p;
  if (!training || p == 0.0f) return a;
  GNMR_CHECK(rng != nullptr);
  Tensor mask(a.value().shape());
  float scale = 1.0f / (1.0f - p);
  float* md = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    md[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = top::Mul(a.value(), mask);
  return MakeOpVar(std::move(out), {a}, [mask = std::move(mask)](Node* self) {
    self->inputs[0]->AccumulateGrad(top::Mul(self->grad, mask));
  });
}

Var PairwiseHingeLoss(const Var& pos_scores, const Var& neg_scores,
                      float margin) {
  // mean(relu(margin - pos + neg))
  Var diff = AddScalar(Sub(neg_scores, pos_scores), margin);
  return MeanAll(Relu(diff));
}

Var BprLoss(const Var& pos_scores, const Var& neg_scores) {
  // -log sigmoid(pos - neg) == softplus(neg - pos)
  return MeanAll(Softplus(Sub(neg_scores, pos_scores)));
}

Var BceWithLogitsLoss(const Var& logits, const Var& targets) {
  GNMR_CHECK(logits.value().SameShape(targets.value()));
  return MeanAll(Sub(Softplus(logits), Mul(logits, targets)));
}

Var MseLoss(const Var& pred, const Var& target) {
  GNMR_CHECK(pred.value().SameShape(target.value()));
  return MeanAll(Square(Sub(pred, target)));
}

}  // namespace ad
}  // namespace gnmr
