#include "src/nn/pretrain.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/nn/init.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace nn {

namespace {

namespace top = tensor::ops;
using ad::Node;
using ad::Var;
using tensor::CsrMatrix;
using tensor::GetBackend;
using tensor::Tensor;

// Trains one autoencoder over rows of one side and returns encoder outputs
// for all entities on that side.
Tensor TrainSide(const graph::MultiBehaviorGraph& g, bool user_side,
                 const PretrainConfig& cfg, util::Rng* rng) {
  const CsrMatrix rows = MultiHotRows(g, user_side);
  const int64_t count = rows.rows();
  const int64_t in_dim = rows.cols();

  // Encoder W1 [in_dim, dim], b1; decoder W2 [dim, in_dim], b2: Xavier
  // weights drawn in that order and zero biases, as two nn::Linear layers
  // would. W2 is kept transposed, as W2^T [in_dim, dim], the layout of
  // every product SparseReconstructionMse takes of it; Adam is
  // elementwise, so the layout does not change its updates.
  const Var w1 = Var::Param(XavierUniform(in_dim, cfg.dim, rng));
  const Var b1 = Var::Param(Tensor({1, cfg.dim}));
  const Var w2_t =
      Var::Param(top::Transpose(XavierUniform(cfg.dim, in_dim, rng)));
  const Var b2 = Var::Param(Tensor({1, in_dim}));
  const std::vector<Var> params = {w1, b1, w2_t, b2};
  Adam opt(cfg.learning_rate);

  std::vector<int64_t> order(static_cast<size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng->Shuffle(&order);
    for (int64_t start = 0; start < count; start += cfg.batch_size) {
      int64_t end = std::min(count, start + cfg.batch_size);
      std::vector<int64_t> ids(order.begin() + start, order.begin() + end);
      const CsrMatrix x = rows.SelectRows(ids);
      const CsrMatrix x_t = x.Transposed();
      Var h = ad::Relu(ad::Add(ad::Spmm(&x, &x_t, w1), b1));
      ad::Backward(SparseReconstructionMse(h, w2_t, b2, &x, &x_t));
      opt.Step(params);
    }
  }

  // Encode all rows.
  Tensor out = top::Relu(top::Add(top::Spmm(rows, w1.value()), b1.value()));
  // Small-norm rescale: downstream layers expect embedding-scale inputs.
  float norm = out.L2Norm();
  if (norm > 0.0f) {
    float scale =
        0.1f * std::sqrt(static_cast<float>(out.numel())) / norm;
    float* d = out.data();
    for (int64_t i = 0; i < out.numel(); ++i) d[i] *= scale;
  }
  return out;
}

}  // namespace

CsrMatrix MultiHotRows(const graph::MultiBehaviorGraph& graph,
                       bool user_side) {
  std::vector<const CsrMatrix*> blocks;
  for (int64_t k = 0; k < graph.num_behaviors(); ++k) {
    blocks.push_back(user_side ? &graph.UserItem(k) : &graph.ItemUser(k));
  }
  return CsrMatrix::HStack(blocks);
}

Var SparseReconstructionMse(const Var& h, const Var& w2_t, const Var& b2,
                            const CsrMatrix* x, const CsrMatrix* x_transposed) {
  GNMR_CHECK(x != nullptr && x_transposed != nullptr);
  const Tensor& hv = h.value();
  const Tensor& wv = w2_t.value();
  const Tensor& bv = b2.value();
  GNMR_CHECK_EQ(hv.rank(), 2);
  const int64_t rows = hv.rows();
  const int64_t d = hv.cols();
  const int64_t width = wv.rows();
  GNMR_CHECK(wv.shape() == (std::vector<int64_t>{width, d}));
  GNMR_CHECK(bv.shape() == (std::vector<int64_t>{1, width}));
  GNMR_CHECK_EQ(x->rows(), rows);
  GNMR_CHECK_EQ(x->cols(), width);
  GNMR_CHECK_EQ(x_transposed->rows(), width);
  GNMR_CHECK_EQ(x_transposed->cols(), rows);
  GNMR_CHECK_GT(rows * width, 0);

  // X W2^T [B, d], h (W2 W2^T) [B, d] and b2 W2^T [1, d]: the three terms
  // of R W2^T for the residual R = h W2 + 1 b2 - X, kept for dh.
  Tensor xw = top::Spmm(*x, wv);
  Tensor hg = top::MatMul(hv, top::MatMulTransA(wv, wv));
  Tensor bw = top::MatMul(bv, wv);

  // sum R^2 = sum_i h_i . (hg_i + 2 bw - 2 xw_i) + B |b2|^2
  //           + sum_{(i,j) in nnz(X)} x_ij (x_ij - 2 b2_j).
  const float* hd = hv.data();
  const float* bd = bv.data();
  double sum = 0.0;
  for (int64_t i = 0; i < rows * d; ++i) {
    sum += static_cast<double>(hd[i]) *
           (static_cast<double>(hg.data()[i]) + 2.0 * bw.data()[i % d] -
            2.0 * xw.data()[i]);
  }
  double b_sq = 0.0;
  for (int64_t j = 0; j < width; ++j) b_sq += static_cast<double>(bd[j]) * bd[j];
  sum += static_cast<double>(rows) * b_sq;
  for (int64_t p = 0; p < x->nnz(); ++p) {
    const double v = x->values()[static_cast<size_t>(p)];
    sum += v * (v - 2.0 * bd[x->col_idx()[static_cast<size_t>(p)]]);
  }
  const double numel = static_cast<double>(rows) * static_cast<double>(width);
  Tensor loss = Tensor::Scalar(static_cast<float>(sum / numel));

  return ad::MakeOpVar(
      std::move(loss), {h, w2_t, b2},
      [x_transposed, numel, xw = std::move(xw), hg = std::move(hg),
       bw = std::move(bw)](Node* self) {
        Node* h_node = self->inputs[0].get();
        Node* w_node = self->inputs[1].get();
        Node* b_node = self->inputs[2].get();
        const Tensor& hv = h_node->value;
        const Tensor& wv = w_node->value;
        const Tensor& bv = b_node->value;
        const int64_t rows = hv.rows();
        const int64_t d = hv.cols();
        const int64_t width = wv.rows();
        const float s =
            static_cast<float>(2.0 * self->grad.data()[0] / numel);

        if (h_node->requires_grad) {
          // dh = s * [h (W2 W2^T) + 1 (b2 W2^T) - X W2^T].
          Tensor dh({rows, d});
          for (int64_t i = 0; i < rows * d; ++i) {
            dh.data()[i] =
                s * (hg.data()[i] + bw.data()[i % d] - xw.data()[i]);
          }
          h_node->AccumulateGrad(std::move(dh));
        }
        if (!w_node->requires_grad && !b_node->requires_grad) return;
        const Tensor h_sum = top::SumAxis(hv, 0);  // [1, d]
        if (w_node->requires_grad) {
          // dW2^T = s * [W2^T (h^T h) + b2^T (sum h) - X^T h].
          Tensor dw = top::MatMul(wv, top::MatMulTransA(hv, hv));
          const Tensor xth = top::Spmm(*x_transposed, hv);
          float* dwd = dw.data();
          const float* xd = xth.data();
          const float* bd = bv.data();
          const float* sd = h_sum.data();
          GetBackend().RunRows(width, 3 * d, [=](int64_t lo, int64_t hi) {
            for (int64_t j = lo; j < hi; ++j) {
              for (int64_t c = 0; c < d; ++c) {
                const int64_t i = j * d + c;
                dwd[i] = s * (dwd[i] + bd[j] * sd[c] - xd[i]);
              }
            }
          });
          w_node->AccumulateGrad(std::move(dw));
        }
        if (b_node->requires_grad) {
          // db2 = s * [(sum h) W2 + B b2 - sum_rows X].
          Tensor db = top::MatMulTransB(h_sum, wv);
          const std::vector<float> x_col = x_transposed->RowSums();
          const float b_rows = static_cast<float>(rows);
          for (int64_t j = 0; j < width; ++j) {
            db.data()[j] = s * (db.data()[j] + b_rows * bv.data()[j] -
                                x_col[static_cast<size_t>(j)]);
          }
          b_node->AccumulateGrad(std::move(db));
        }
      });
}

PretrainedEmbeddings PretrainEmbeddings(const graph::MultiBehaviorGraph& graph,
                                        const PretrainConfig& config,
                                        util::Rng* rng) {
  GNMR_CHECK_GT(config.dim, 0);
  PretrainedEmbeddings out;
  out.user = TrainSide(graph, /*user_side=*/true, config, rng);
  out.item = TrainSide(graph, /*user_side=*/false, config, rng);
  return out;
}

PretrainedEmbeddings PretrainEmbeddings(const data::Dataset& dataset,
                                        const PretrainConfig& config,
                                        util::Rng* rng) {
  return PretrainEmbeddings(*dataset.BuildGraph(), config, rng);
}

}  // namespace nn
}  // namespace gnmr
