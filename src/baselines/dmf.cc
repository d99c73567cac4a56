#include "src/baselines/dmf.h"

#include <cmath>

#include "src/baselines/common.h"
#include "src/graph/negative_sampler.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ad_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace baselines {

namespace {

// Cosine similarity of matching rows, with norm floor for stability.
ad::Var RowCosine(const ad::Var& a, const ad::Var& b) {
  ad::Var dot = ad::RowDot(a, b);
  ad::Var na = ad::Sqrt(ad::AddScalar(ad::RowDot(a, a), 1e-8f));
  ad::Var nb = ad::Sqrt(ad::AddScalar(ad::RowDot(b, b), 1e-8f));
  return ad::Div(dot, ad::Mul(na, nb));
}

}  // namespace

void DMF::Fit(const data::Dataset& train) {
  GNMR_CHECK(train.Validate().ok());
  util::Rng rng(config_.seed);
  auto graph = train.BuildGraph();
  graph::NegativeSampler sampler(graph.get(), train.target_behavior);
  int64_t target = train.target_behavior;

  std::vector<int64_t> user_dims = {graph->num_items()};
  std::vector<int64_t> item_dims = {graph->num_users()};
  for (int64_t h : config_.hidden_dims) {
    user_dims.push_back(h);
    item_dims.push_back(h);
  }
  user_dims.push_back(config_.embedding_dim);
  item_dims.push_back(config_.embedding_dim);
  nn::Mlp user_tower(user_dims, nn::Activation::kRelu, nn::Activation::kNone,
                     &rng);
  nn::Mlp item_tower(item_dims, nn::Activation::kRelu, nn::Activation::kNone,
                     &rng);
  std::vector<ad::Var> params = user_tower.Parameters();
  {
    auto p = item_tower.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::Adam opt(config_.learning_rate, 0.9, 0.999, 1e-8, config_.weight_decay);

  // DMF uses cosine scores in [-1, 1]; scale logits so BCE saturates.
  constexpr float kLogitScale = 5.0f;
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    auto batches = SamplePointEpoch(*graph, sampler, target,
                                    config_.batch_size,
                                    config_.negatives_per_positive, &rng,
                                    config_.samples_per_user);
    for (const PointBatch& b : batches) {
      ad::Var u_rows = ad::Var::Constant(UserRows(*graph, b.users, target));
      ad::Var i_rows = ad::Var::Constant(ItemRows(*graph, b.items, target));
      ad::Var pu = user_tower.Forward(u_rows);
      ad::Var qi = item_tower.Forward(i_rows);
      ad::Var logits = ad::MulScalar(RowCosine(pu, qi), kLogitScale);
      tensor::Tensor labels =
          tensor::Tensor::FromData({static_cast<int64_t>(b.size()), 1},
                                   tensor::OwnedVector<float>(
                                       b.labels.begin(), b.labels.end()));
      ad::Var loss =
          ad::BceWithLogitsLoss(logits, ad::Var::Constant(std::move(labels)));
      ad::Backward(loss);
      opt.Step(params);
    }
  }

  // Cache tower outputs for every user and item.
  auto encode_all = [&](bool user_side) {
    int64_t count = user_side ? graph->num_users() : graph->num_items();
    tensor::Tensor out({count, config_.embedding_dim});
    int64_t batch = 256;
    for (int64_t start = 0; start < count; start += batch) {
      int64_t end = std::min(count, start + batch);
      std::vector<int64_t> ids;
      for (int64_t i = start; i < end; ++i) ids.push_back(i);
      tensor::Tensor rows = user_side ? UserRows(*graph, ids, target)
                                      : ItemRows(*graph, ids, target);
      const nn::Mlp& tower = user_side ? user_tower : item_tower;
      ad::Var repr = tower.Forward(ad::Var::Constant(std::move(rows)));
      std::copy(repr.value().data(),
                repr.value().data() + repr.value().numel(),
                out.data() + start * config_.embedding_dim);
    }
    return out;
  };
  user_repr_ = encode_all(true);
  item_repr_ = encode_all(false);
}

void DMF::ScoreItems(int64_t user, const std::vector<int64_t>& items,
                     float* out) {
  GNMR_CHECK(!user_repr_.empty()) << "Fit() before ScoreItems()";
  int64_t d = user_repr_.cols();
  const float* u = user_repr_.data() + user * d;
  double un = 0.0;
  for (int64_t c = 0; c < d; ++c) un += static_cast<double>(u[c]) * u[c];
  un = std::sqrt(un + 1e-8);
  for (size_t i = 0; i < items.size(); ++i) {
    const float* v = item_repr_.data() + items[i] * d;
    double dot = 0.0, vn = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      dot += static_cast<double>(u[c]) * v[c];
      vn += static_cast<double>(v[c]) * v[c];
    }
    out[i] = static_cast<float>(dot / (un * std::sqrt(vn + 1e-8)));
  }
}

}  // namespace baselines
}  // namespace gnmr
