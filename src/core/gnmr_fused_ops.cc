#include "src/core/gnmr_fused_ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/element_ops.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace core {

namespace {

namespace top = tensor::ops;
namespace elops = tensor::elops;
using ad::Node;
using ad::Var;
using tensor::GetBackend;
using tensor::Tensor;

/// The parameters' values side by side, [d, sum of widths].
Tensor PackCols(const std::vector<Var>& params) {
  std::vector<const Tensor*> parts;
  parts.reserve(params.size());
  for (const Var& p : params) parts.push_back(&p.value());
  return top::ConcatCols(parts);
}

bool AnyRequiresGrad(const std::vector<Node*>& nodes) {
  return std::any_of(nodes.begin(), nodes.end(),
                     [](const Node* n) { return n->requires_grad; });
}

/// Splits the packed gradient [d, sum of widths] back onto the nodes the
/// weights were packed from, in packing order.
void UnpackColsGrad(const Tensor& packed, const std::vector<Node*>& nodes) {
  int64_t off = 0;
  for (Node* n : nodes) {
    const int64_t w = n->value.cols();
    if (n->requires_grad) n->AccumulateGrad(top::SliceCols(packed, off, w));
    off += w;
  }
}

/// Column sums of columns [0, m) of an [n, stride] matrix -> [1, m], in
/// float from +0.0f in ascending row order (ColSums' order).
Tensor LeadingColSums(const float* in, int64_t n, int64_t stride, int64_t m) {
  Tensor out({1, m});
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) od[j] += in[i * stride + j];
  }
  return out;
}

/// tensor::ops::SoftmaxRows on one row of m values, in place.
void SoftmaxInPlace(float* row, int64_t m) {
  float mx = row[0];
  for (int64_t j = 1; j < m; ++j) mx = std::max(mx, row[j]);
  double denom = 0.0;
  for (int64_t j = 0; j < m; ++j) {
    row[j] = std::exp(row[j] - mx);
    denom += row[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t j = 0; j < m; ++j) row[j] *= inv;
}

/// Softmax backward of ad::SoftmaxRows on one row: dx = y * (g - sum(g*y)),
/// the row sum in double (tensor::ops::SumAxis). `g` is overwritten by dx.
void SoftmaxBackwardInPlace(const float* y, float* g, int64_t m) {
  double acc = 0.0;
  for (int64_t j = 0; j < m; ++j) acc += g[j] * y[j];
  const float row = static_cast<float>(acc);
  for (int64_t j = 0; j < m; ++j) g[j] = y[j] * (g[j] - row);
}

void CheckStack(const Var& stack, int64_t num_k) {
  GNMR_CHECK_EQ(stack.value().rank(), 2);
  GNMR_CHECK_GT(num_k, 0);
  GNMR_CHECK_EQ(stack.value().rows() % num_k, 0)
      << "stack of " << stack.value().rows() << " rows is not " << num_k
      << " equal blocks";
}

}  // namespace

// ------------------------------------------------------------ StackedSpmm

Var StackedSpmm(const std::vector<const graph::SparseOp*>& adj,
                const Var& h) {
  GNMR_TRACE_SPAN("train.spmm");
  GNMR_CHECK(!adj.empty());
  GNMR_CHECK_EQ(h.value().rank(), 2);
  const int64_t num_k = static_cast<int64_t>(adj.size());
  const int64_t n = adj[0]->forward.rows();
  const int64_t d = h.value().cols();
  for (const graph::SparseOp* a : adj) {
    GNMR_CHECK(a != nullptr);
    GNMR_CHECK_EQ(a->forward.rows(), n);
    GNMR_CHECK_EQ(a->forward.cols(), h.value().rows())
        << "Spmm shape mismatch: A cols " << a->forward.cols()
        << " vs x rows " << h.value().rows();
    GNMR_CHECK_EQ(a->backward.rows(), a->forward.cols());
    GNMR_CHECK_EQ(a->backward.cols(), n);
  }
  Tensor out({num_k * n, d});
  for (int64_t k = 0; k < num_k; ++k) {
    GetBackend().Spmm(adj[static_cast<size_t>(k)]->forward, h.value().data(),
                      out.data() + k * n * d, d);
  }
  return ad::MakeOpVar(std::move(out), {h}, [adj, n, d](Node* self) {
    GNMR_TRACE_SPAN("train.spmm.bwd");
    Node* h_node = self->inputs[0].get();
    for (int64_t k = static_cast<int64_t>(adj.size()) - 1; k >= 0; --k) {
      Tensor g(h_node->value.shape());
      GetBackend().Spmm(adj[static_cast<size_t>(k)]->backward,
                        self->grad.data() + k * n * d, g.data(), d);
      h_node->AccumulateGrad(std::move(g));
    }
  });
}

// ----------------------------------------------------- FusedTypeEmbedding

Var FusedTypeEmbedding(const Var& s, const Var& w1, const Var& b1,
                       const std::vector<Var>& w2) {
  GNMR_TRACE_SPAN("train.eta");
  GNMR_CHECK_EQ(s.value().rank(), 2);
  const int64_t rows = s.value().rows();
  const int64_t d = s.value().cols();
  const int64_t channels = static_cast<int64_t>(w2.size());
  GNMR_CHECK_GT(channels, 0);
  GNMR_CHECK(w1.shape() == (std::vector<int64_t>{d, channels}));
  GNMR_CHECK(b1.shape() == (std::vector<int64_t>{1, channels}));
  for (const Var& w : w2) {
    GNMR_CHECK(w.shape() == (std::vector<int64_t>{d, d}));
  }
  std::vector<Var> packed_params = {w1};
  packed_params.insert(packed_params.end(), w2.begin(), w2.end());
  Tensor wcat = PackCols(packed_params);  // [d, C + C*d]
  const int64_t width = channels + channels * d;
  // proj = s [W1 | W2_0 .. W2_{C-1}]; the row body overwrites its first C
  // columns with alpha = ReLU(. + b1) (alpha > 0 exactly where the
  // pre-activation is, so it doubles as the ReLU mask in the backward).
  Tensor proj = top::MatMul(s.value(), wcat);
  Tensor out = Tensor::Uninitialized({rows, d});  // channel 0 writes it
  {
    float* pd = proj.data();
    float* od = out.data();
    const float* bias = b1.value().data();
    GetBackend().RunRows(rows, width, [=](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        float* p = pd + r * width;
        float* o = od + r * d;
        for (int64_t c = 0; c < channels; ++c) {
          p[c] = elops::ReluEl(p[c] + bias[c], 0.0f);
        }
        const float* p0 = p + channels;
        for (int64_t j = 0; j < d; ++j) o[j] = p0[j] * p[0];
        for (int64_t c = 1; c < channels; ++c) {
          const float ac = p[c];
          const float* pc = p + channels + c * d;
          for (int64_t j = 0; j < d; ++j) o[j] = o[j] + pc[j] * ac;
        }
      }
    });
  }
  std::vector<Var> inputs = {s, b1};
  inputs.insert(inputs.end(), packed_params.begin(), packed_params.end());
  return ad::MakeOpVar(
      std::move(out), std::move(inputs),
      [proj = std::move(proj), wcat = std::move(wcat), rows, d, channels,
       width](Node* self) {
        GNMR_TRACE_SPAN("train.eta.bwd");
        Node* s_node = self->inputs[0].get();
        Node* b1_node = self->inputs[1].get();
        std::vector<Node*> weights;
        for (size_t i = 2; i < self->inputs.size(); ++i) {
          weights.push_back(self->inputs[i].get());
        }
        // dproj: the channel columns get G * alpha_c, the alpha columns
        // the ReLU-masked row sums of G * proj_c.
        // Every column of every row is written below.
        Tensor dproj = Tensor::Uninitialized({rows, width});
        {
          const float* pd = proj.data();
          const float* gd = self->grad.data();
          float* dd = dproj.data();
          GetBackend().RunRows(rows, 2 * width, [=](int64_t lo, int64_t hi) {
            std::vector<float> dalpha(static_cast<size_t>(channels));
            for (int64_t r = lo; r < hi; ++r) {
              const float* p = pd + r * width;
              const float* g = gd + r * d;
              float* dp = dd + r * width;
              std::fill(dalpha.begin(), dalpha.end(), 0.0f);
              for (int64_t c = 0; c < channels; ++c) {
                const float ac = p[c];
                float* dpc = dp + channels + c * d;
                for (int64_t j = 0; j < d; ++j) dpc[j] = g[j] * ac;
              }
              // All C row sums side by side, each in ascending j.
              for (int64_t j = 0; j < d; ++j) {
                const float gj = g[j];
                for (int64_t c = 0; c < channels; ++c) {
                  dalpha[static_cast<size_t>(c)] +=
                      gj * p[channels + c * d + j];
                }
              }
              for (int64_t c = 0; c < channels; ++c) {
                dp[c] = elops::ReluBwdEl(p[c], dalpha[static_cast<size_t>(c)],
                                         0.0f);
              }
            }
          });
        }
        if (b1_node->requires_grad) {
          b1_node->AccumulateGrad(
              LeadingColSums(dproj.data(), rows, width, channels));
        }
        if (AnyRequiresGrad(weights)) {
          UnpackColsGrad(top::MatMulTransA(s_node->value, dproj), weights);
        }
        if (s_node->requires_grad) {
          s_node->AccumulateGrad(top::MatMulTransB(dproj, wcat));
        }
      });
}

// ------------------------------------------------- FusedRelationAttention

Var FusedRelationAttention(const Var& stack, int64_t num_k,
                           const std::vector<Var>& q,
                           const std::vector<Var>& k,
                           const std::vector<Var>& v) {
  GNMR_TRACE_SPAN("train.xi");
  CheckStack(stack, num_k);
  const int64_t heads = static_cast<int64_t>(q.size());
  GNMR_CHECK_GT(heads, 0);
  GNMR_CHECK_EQ(static_cast<int64_t>(k.size()), heads);
  GNMR_CHECK_EQ(static_cast<int64_t>(v.size()), heads);
  const int64_t n = stack.value().rows() / num_k;
  const int64_t d = stack.value().cols();
  GNMR_CHECK_EQ(d % heads, 0);
  const int64_t hd = d / heads;
  std::vector<Var> packed_params = q;
  packed_params.insert(packed_params.end(), k.begin(), k.end());
  packed_params.insert(packed_params.end(), v.begin(), v.end());
  for (const Var& w : packed_params) {
    GNMR_CHECK(w.shape() == (std::vector<int64_t>{d, hd}));
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Tensor wqkv = PackCols(packed_params);  // [d, 3d]
  Tensor qkv = top::MatMul(stack.value(), wqkv);
  const int64_t width = 3 * d;
  // attn[node][(s*K + k)*K + k']: head s's weight of behavior k' for k.
  const int64_t per_node = heads * num_k * num_k;
  // The row body writes every weight and (value sum first) every output.
  Tensor attn = Tensor::Uninitialized({n, per_node});
  Tensor out = Tensor::Uninitialized({num_k * n, d});
  {
    const float* x = stack.value().data();
    const float* qd = qkv.data();
    float* ad = attn.data();
    float* od = out.data();
    GetBackend().RunRows(n, 2 * num_k * num_k * d, [=](int64_t lo, int64_t hi) {
      for (int64_t node = lo; node < hi; ++node) {
        for (int64_t s = 0; s < heads; ++s) {
          for (int64_t kq = 0; kq < num_k; ++kq) {
            const int64_t r = kq * n + node;
            const float* qrow = qd + r * width + s * hd;
            float* a = ad + node * per_node + (s * num_k + kq) * num_k;
            for (int64_t kk = 0; kk < num_k; ++kk) {
              const float* krow = qd + (kk * n + node) * width + d + s * hd;
              a[kk] = static_cast<float>(
                          tensor::LanePartialDot(qrow, krow, hd)) *
                      scale;
            }
            SoftmaxInPlace(a, num_k);
            float* o = od + r * d + s * hd;
            const float* v0 = qd + node * width + 2 * d + s * hd;
            for (int64_t j = 0; j < hd; ++j) o[j] = v0[j] * a[0];
            for (int64_t kk = 1; kk < num_k; ++kk) {
              const float* vrow = qd + (kk * n + node) * width + 2 * d + s * hd;
              const float w = a[kk];
              for (int64_t j = 0; j < hd; ++j) o[j] = o[j] + vrow[j] * w;
            }
            const float* xrow = x + r * d + s * hd;
            for (int64_t j = 0; j < hd; ++j) o[j] = o[j] + xrow[j];
          }
        }
      }
    });
  }
  std::vector<Var> inputs = {stack};
  inputs.insert(inputs.end(), packed_params.begin(), packed_params.end());
  return ad::MakeOpVar(
      std::move(out), std::move(inputs),
      [qkv = std::move(qkv), attn = std::move(attn), wqkv = std::move(wqkv),
       num_k, n, d, heads, hd, scale, per_node](Node* self) {
        GNMR_TRACE_SPAN("train.xi.bwd");
        Node* x_node = self->inputs[0].get();
        std::vector<Node*> weights;
        for (size_t i = 1; i < self->inputs.size(); ++i) {
          weights.push_back(self->inputs[i].get());
        }
        const int64_t width = 3 * d;
        Tensor dqkv({num_k * n, width});
        {
          const float* qd = qkv.data();
          const float* ad = attn.data();
          const float* gd = self->grad.data();
          float* dd = dqkv.data();
          GetBackend().RunRows(
              n, 4 * num_k * num_k * d, [=](int64_t lo, int64_t hi) {
                std::vector<float> da(static_cast<size_t>(num_k));
                for (int64_t node = lo; node < hi; ++node) {
                  for (int64_t s = 0; s < heads; ++s) {
                    for (int64_t kq = 0; kq < num_k; ++kq) {
                      const int64_t r = kq * n + node;
                      const float* g = gd + r * d + s * hd;
                      const float* a =
                          ad + node * per_node + (s * num_k + kq) * num_k;
                      // Value sum: dV_k' += a_k' G_k, dA_k' = G_k . V_k'.
                      for (int64_t kk = 0; kk < num_k; ++kk) {
                        const int64_t rk = kk * n + node;
                        const float* vrow = qd + rk * width + 2 * d + s * hd;
                        float* dv = dd + rk * width + 2 * d + s * hd;
                        const float w = a[kk];
                        float acc = 0.0f;
                        for (int64_t j = 0; j < hd; ++j) {
                          dv[j] += g[j] * w;
                          acc += g[j] * vrow[j];
                        }
                        da[static_cast<size_t>(kk)] = acc;
                      }
                      SoftmaxBackwardInPlace(a, da.data(), num_k);
                      // Logits: dQ_k += dl_k' K_k', dK_k' += dl_k' Q_k.
                      const float* qrow = qd + r * width + s * hd;
                      float* dq = dd + r * width + s * hd;
                      for (int64_t kk = 0; kk < num_k; ++kk) {
                        const float dl = da[static_cast<size_t>(kk)] * scale;
                        const int64_t rk = kk * n + node;
                        const float* krow = qd + rk * width + d + s * hd;
                        float* dk = dd + rk * width + d + s * hd;
                        for (int64_t j = 0; j < hd; ++j) {
                          dq[j] += krow[j] * dl;
                          dk[j] += qrow[j] * dl;
                        }
                      }
                    }
                  }
                }
              });
        }
        if (AnyRequiresGrad(weights)) {
          UnpackColsGrad(top::MatMulTransA(x_node->value, dqkv), weights);
        }
        if (x_node->requires_grad) {
          x_node->AccumulateGrad(top::MatMulTransB(dqkv, wqkv));
          x_node->AccumulateGrad(self->grad);  // the residual
        }
      });
}

// ------------------------------------------------------ FusedBehaviorGate

Var FusedBehaviorGate(const Var& stack, int64_t num_k, const Var& w3,
                      const Var& b2, const Var& w2, const Var& b3) {
  GNMR_TRACE_SPAN("train.psi");
  CheckStack(stack, num_k);
  const int64_t n = stack.value().rows() / num_k;
  const int64_t d = stack.value().cols();
  GNMR_CHECK_EQ(w3.value().rank(), 2);
  const int64_t h = w3.value().cols();
  GNMR_CHECK(w3.shape() == (std::vector<int64_t>{d, h}));
  GNMR_CHECK(b2.shape() == (std::vector<int64_t>{1, h}));
  GNMR_CHECK(w2.shape() == (std::vector<int64_t>{h, 1}));
  GNMR_CHECK(b3.shape() == (std::vector<int64_t>{1, 1}));
  // hidden = X W3; the row body turns it into ReLU(. + b2) in place.
  Tensor hidden = top::MatMul(stack.value(), w3.value());
  // Both written whole by the row body.
  Tensor gate = Tensor::Uninitialized({n, num_k});  // softmax weights
  Tensor out = Tensor::Uninitialized({n, d});
  {
    const float* x = stack.value().data();
    float* hdata = hidden.data();
    float* gd = gate.data();
    float* od = out.data();
    const float* bias = b2.value().data();
    const float* wout = w2.value().data();
    const float bout = b3.value().data()[0];
    GetBackend().RunRows(n, num_k * (2 * h + d), [=](int64_t lo, int64_t hi) {
      for (int64_t node = lo; node < hi; ++node) {
        float* g = gd + node * num_k;
        for (int64_t kk = 0; kk < num_k; ++kk) {
          float* hr = hdata + (kk * n + node) * h;
          for (int64_t j = 0; j < h; ++j) {
            hr[j] = elops::ReluEl(hr[j] + bias[j], 0.0f);
          }
          // MatMul's [1,h] x [h,1] row: ascending j, zero terms skipped.
          float logit = 0.0f;
          for (int64_t j = 0; j < h; ++j) {
            if (hr[j] == 0.0f) continue;
            logit += hr[j] * wout[j];
          }
          g[kk] = logit + bout;
        }
        SoftmaxInPlace(g, num_k);
        float* o = od + node * d;
        const float* x0 = x + node * d;
        for (int64_t j = 0; j < d; ++j) o[j] = x0[j] * g[0];
        for (int64_t kk = 1; kk < num_k; ++kk) {
          const float* xk = x + (kk * n + node) * d;
          const float w = g[kk];
          for (int64_t j = 0; j < d; ++j) o[j] = o[j] + xk[j] * w;
        }
      }
    });
  }
  return ad::MakeOpVar(
      std::move(out), {stack, w3, b2, w2, b3},
      [hidden = std::move(hidden), gate = std::move(gate), num_k, n, d,
       h](Node* self) {
        GNMR_TRACE_SPAN("train.psi.bwd");
        Node* x_node = self->inputs[0].get();
        Node* w3_node = self->inputs[1].get();
        Node* b2_node = self->inputs[2].get();
        Node* w2_node = self->inputs[3].get();
        Node* b3_node = self->inputs[4].get();
        // dx and dlogit are written whole; dhidden keeps its zero fill,
        // since rows with a zero logit gradient are skipped.
        Tensor dx = Tensor::Uninitialized({num_k * n, d});  // gate product
        Tensor dlogit = Tensor::Uninitialized({num_k * n, 1});
        Tensor dhidden({num_k * n, h});  // through the ReLU
        {
          const float* x = x_node->value.data();
          const float* hdata = hidden.data();
          const float* gd = gate.data();
          const float* gout = self->grad.data();
          const float* wout = w2_node->value.data();
          float* dxd = dx.data();
          float* dld = dlogit.data();
          float* dhd = dhidden.data();
          GetBackend().RunRows(
              n, num_k * (2 * d + h), [=](int64_t lo, int64_t hi) {
                std::vector<float> dg(static_cast<size_t>(num_k));
                for (int64_t node = lo; node < hi; ++node) {
                  const float* g = gd + node * num_k;
                  const float* go = gout + node * d;
                  for (int64_t kk = 0; kk < num_k; ++kk) {
                    const int64_t r = kk * n + node;
                    const float* xr = x + r * d;
                    float* dxr = dxd + r * d;
                    const float w = g[kk];
                    float acc = 0.0f;
                    for (int64_t j = 0; j < d; ++j) {
                      dxr[j] = go[j] * w;
                      acc += go[j] * xr[j];
                    }
                    dg[static_cast<size_t>(kk)] = acc;
                  }
                  SoftmaxBackwardInPlace(g, dg.data(), num_k);
                  for (int64_t kk = 0; kk < num_k; ++kk) {
                    const int64_t r = kk * n + node;
                    const float dl = dg[static_cast<size_t>(kk)];
                    dld[r] = dl;
                    if (dl == 0.0f) continue;
                    const float* hr = hdata + r * h;
                    float* dhr = dhd + r * h;
                    for (int64_t j = 0; j < h; ++j) {
                      dhr[j] = elops::ReluBwdEl(hr[j], dl * wout[j], 0.0f);
                    }
                  }
                }
              });
        }
        if (b3_node->requires_grad) {
          b3_node->AccumulateGrad(LeadingColSums(dlogit.data(), num_k * n,
                                                 1, 1));
        }
        if (w2_node->requires_grad) {
          w2_node->AccumulateGrad(top::MatMulTransA(hidden, dlogit));
        }
        if (b2_node->requires_grad) {
          b2_node->AccumulateGrad(top::SumAxis(dhidden, 0));
        }
        if (w3_node->requires_grad) {
          w3_node->AccumulateGrad(top::MatMulTransA(x_node->value, dhidden));
        }
        if (x_node->requires_grad) {
          x_node->AccumulateGrad(std::move(dx));
          x_node->AccumulateGrad(top::MatMulTransB(dhidden, w3_node->value));
        }
      });
}

// ----------------------------------------------------------- BehaviorMean

Var BehaviorMean(const Var& stack, int64_t num_k) {
  CheckStack(stack, num_k);
  const int64_t n = stack.value().rows() / num_k;
  const int64_t d = stack.value().cols();
  const float inv = 1.0f / static_cast<float>(num_k);
  Tensor out({n, d});
  {
    const float* x = stack.value().data();
    float* od = out.data();
    GetBackend().RunRows(n, num_k * d, [=](int64_t lo, int64_t hi) {
      for (int64_t node = lo; node < hi; ++node) {
        float* o = od + node * d;
        std::copy(x + node * d, x + (node + 1) * d, o);
        for (int64_t kk = 1; kk < num_k; ++kk) {
          const float* xk = x + (kk * n + node) * d;
          for (int64_t j = 0; j < d; ++j) o[j] = o[j] + xk[j];
        }
        for (int64_t j = 0; j < d; ++j) o[j] = o[j] * inv;
      }
    });
  }
  return ad::MakeOpVar(std::move(out), {stack}, [num_k, n, d,
                                                  inv](Node* self) {
    Node* x_node = self->inputs[0].get();
    Tensor dx(x_node->value.shape());
    const float* g = self->grad.data();
    float* dxd = dx.data();
    GetBackend().RunRows(n, num_k * d, [=](int64_t lo, int64_t hi) {
      for (int64_t node = lo; node < hi; ++node) {
        for (int64_t kk = 0; kk < num_k; ++kk) {
          float* dr = dxd + (kk * n + node) * d;
          for (int64_t j = 0; j < d; ++j) dr[j] = g[node * d + j] * inv;
        }
      }
    });
    x_node->AccumulateGrad(std::move(dx));
  });
}

// ------------------------------------------------------------ Stack/split

Var StackBehaviors(const std::vector<Var>& behaviors) {
  GNMR_CHECK(!behaviors.empty());
  for (const Var& b : behaviors) {
    GNMR_CHECK(b.shape() == behaviors[0].shape());
  }
  return behaviors.size() == 1 ? behaviors[0] : ad::ConcatRows(behaviors);
}

std::vector<Var> SplitBehaviors(const Var& stack, int64_t num_k) {
  CheckStack(stack, num_k);
  if (num_k == 1) return {stack};
  const int64_t n = stack.value().rows() / num_k;
  std::vector<Var> out;
  out.reserve(static_cast<size_t>(num_k));
  for (int64_t kk = 0; kk < num_k; ++kk) {
    out.push_back(ad::SliceRows(stack, kk * n, n));
  }
  return out;
}

}  // namespace core
}  // namespace gnmr
