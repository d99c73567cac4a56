#include "src/nn/optimizer.h"

#include <cmath>

#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace gnmr {
namespace nn {

namespace {

/// Adam's cost of one element in multiply-adds (two divides and a square
/// root among ~10 flops), which sizes RunRows' cut: tensors under ~8k
/// elements update on the calling thread.
constexpr int64_t kAdamWorkPerElement = 4;

}  // namespace

void Optimizer::Step(const std::vector<ad::Var>& params) {
  for (ad::Var p : params) {
    if (!p.defined() || !p.has_grad()) continue;
    Update(&p);
    p.ZeroGrad();
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : Optimizer(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {}

void Adam::Update(ad::Var* param) {
  tensor::Tensor* value = param->mutable_value();
  const tensor::Tensor& grad = param->grad();
  auto [it, inserted] = state_.try_emplace(param->node().get());
  State& s = it->second;
  if (inserted) {
    s.m = tensor::Tensor(value->shape());
    s.v = tensor::Tensor(value->shape());
  }
  s.t += 1;
  float* v = value->data();
  const float* g = grad.data();
  float* m_buf = s.m.data();
  float* v_buf = s.v.data();
  int64_t n = value->numel();
  float b1 = static_cast<float>(beta1_);
  float b2 = static_cast<float>(beta2_);
  float lr = static_cast<float>(lr_);
  float eps = static_cast<float>(eps_);
  float wd = static_cast<float>(weight_decay_);
  float bias1 = 1.0f - std::pow(b1, static_cast<float>(s.t));
  float bias2 = 1.0f - std::pow(b2, static_cast<float>(s.t));
  // Elementwise, so any cut of [0, n) gives the same floats.
  tensor::GetBackend().RunRows(
      n, kAdamWorkPerElement, [=](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          m_buf[i] = b1 * m_buf[i] + (1.0f - b1) * g[i];
          v_buf[i] = b2 * v_buf[i] + (1.0f - b2) * g[i] * g[i];
          float m_hat = m_buf[i] / bias1;
          float v_hat = v_buf[i] / bias2;
          v[i] -= lr * (m_hat / (std::sqrt(v_hat) + eps) + wd * v[i]);
        }
      });
}

double GlobalGradNorm(const std::vector<ad::Var>& params) {
  double total = 0.0;
  for (const ad::Var& p : params) {
    if (!p.defined() || !p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  return std::sqrt(total);
}

void ClipGradNorm(const std::vector<ad::Var>& params, double max_norm) {
  GNMR_CHECK_GT(max_norm, 0.0);
  double norm = GlobalGradNorm(params);
  if (norm <= max_norm || norm == 0.0) return;
  float scale = static_cast<float>(max_norm / norm);
  for (ad::Var p : params) {
    if (!p.defined() || !p.has_grad()) continue;
    // In-place scale of the gradient buffer.
    tensor::Tensor& g = const_cast<tensor::Tensor&>(p.grad());
    float* gd = g.data();
    for (int64_t i = 0; i < g.numel(); ++i) gd[i] *= scale;
  }
}

}  // namespace nn
}  // namespace gnmr
