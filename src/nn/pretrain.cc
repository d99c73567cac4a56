#include "src/nn/pretrain.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/nn/linear.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/sparse.h"
#include "src/util/check.h"

namespace gnmr {
namespace nn {

namespace {

// Fills a dense multi-hot row block for entities `ids` given per-behavior
// adjacency. Row width = neighbor_count * num_behaviors.
tensor::Tensor BuildRows(const graph::MultiBehaviorGraph& g, bool user_side,
                         const std::vector<int64_t>& ids,
                         int64_t neighbor_count) {
  int64_t k_count = g.num_behaviors();
  tensor::Tensor rows(
      {static_cast<int64_t>(ids.size()), neighbor_count * k_count});
  float* rd = rows.data();
  int64_t width = neighbor_count * k_count;
  for (size_t r = 0; r < ids.size(); ++r) {
    for (int64_t k = 0; k < k_count; ++k) {
      // The behavior's CSR row, read in place: its columns are the
      // neighbours.
      const tensor::CsrMatrix& adj = user_side ? g.UserItem(k) : g.ItemUser(k);
      const size_t id = static_cast<size_t>(ids[r]);
      GNMR_CHECK(ids[r] >= 0 && ids[r] < adj.rows()) << "row " << ids[r];
      float* row = rd + static_cast<int64_t>(r) * width + k * neighbor_count;
      for (int64_t p = adj.row_ptr()[id]; p < adj.row_ptr()[id + 1]; ++p) {
        row[adj.col_idx()[static_cast<size_t>(p)]] = 1.0f;
      }
    }
  }
  return rows;
}

// Trains one autoencoder over rows of one side and returns encoder outputs
// for all entities on that side.
tensor::Tensor TrainSide(const graph::MultiBehaviorGraph& g, bool user_side,
                         const PretrainConfig& cfg, util::Rng* rng) {
  int64_t count = user_side ? g.num_users() : g.num_items();
  int64_t neighbor_count = user_side ? g.num_items() : g.num_users();
  int64_t in_dim = neighbor_count * g.num_behaviors();

  Linear encoder(in_dim, cfg.dim, /*use_bias=*/true, rng);
  Linear decoder(cfg.dim, in_dim, /*use_bias=*/true, rng);
  std::vector<ad::Var> params = encoder.Parameters();
  {
    auto dp = decoder.Parameters();
    params.insert(params.end(), dp.begin(), dp.end());
  }
  Adam opt(cfg.learning_rate);

  std::vector<int64_t> order(static_cast<size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng->Shuffle(&order);
    for (int64_t start = 0; start < count; start += cfg.batch_size) {
      int64_t end = std::min(count, start + cfg.batch_size);
      std::vector<int64_t> ids(order.begin() + start, order.begin() + end);
      tensor::Tensor rows = BuildRows(g, user_side, ids, neighbor_count);
      tensor::Tensor input = rows;
      if (cfg.corruption > 0.0) {
        float* d = input.data();
        for (int64_t i = 0; i < input.numel(); ++i) {
          if (d[i] != 0.0f && rng->Bernoulli(cfg.corruption)) d[i] = 0.0f;
        }
      }
      ad::Var x = ad::Var::Constant(std::move(input));
      ad::Var target = ad::Var::Constant(std::move(rows));
      ad::Var h = ad::Relu(encoder.Forward(x));
      ad::Var recon = decoder.Forward(h);
      ad::Var loss = ad::MseLoss(recon, target);
      ad::Backward(loss);
      opt.Step(params);
    }
  }

  // Encode all rows (in batches to bound memory).
  tensor::Tensor out({count, cfg.dim});
  for (int64_t start = 0; start < count; start += cfg.batch_size) {
    int64_t end = std::min(count, start + cfg.batch_size);
    std::vector<int64_t> ids;
    for (int64_t i = start; i < end; ++i) ids.push_back(i);
    tensor::Tensor rows = BuildRows(g, user_side, ids, neighbor_count);
    ad::Var h = ad::Relu(encoder.Forward(ad::Var::Constant(std::move(rows))));
    const tensor::Tensor& hv = h.value();
    std::copy(hv.data(), hv.data() + hv.numel(),
              out.data() + start * cfg.dim);
  }
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

PretrainedEmbeddings PretrainEmbeddings(const data::Dataset& dataset,
                                        const PretrainConfig& config,
                                        util::Rng* rng) {
  GNMR_CHECK_GT(config.dim, 0);
  auto graph = dataset.BuildGraph();
  PretrainedEmbeddings out;
  out.user = TrainSide(*graph, /*user_side=*/true, config, rng);
  out.item = TrainSide(*graph, /*user_side=*/false, config, rng);
  return out;
}

}  // namespace nn
}  // namespace gnmr
