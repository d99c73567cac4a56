#include "src/baselines/ncf.h"

#include "src/baselines/common.h"
#include "src/graph/negative_sampler.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ad_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace baselines {

std::string NCF::name() const {
  switch (variant_) {
    case NcfVariant::kGmf:
      return "NCF-G";
    case NcfVariant::kMlp:
      return "NCF-M";
    case NcfVariant::kNeuMf:
      return "NCF-N";
  }
  return "NCF";
}

ad::Var NCF::Predict(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items) const {
  std::vector<ad::Var> features;
  if (gmf_user_) {
    ad::Var p = gmf_user_->Lookup(users);
    ad::Var q = gmf_item_->Lookup(items);
    features.push_back(ad::Mul(p, q));  // element-wise product
  }
  if (mlp_user_) {
    ad::Var p = mlp_user_->Lookup(users);
    ad::Var q = mlp_item_->Lookup(items);
    features.push_back(mlp_->Forward(ad::ConcatCols({p, q})));
  }
  ad::Var joint =
      features.size() == 1 ? features[0] : ad::ConcatCols(features);
  return output_->Forward(joint);
}

std::vector<ad::Var> NCF::Parameters() const {
  std::vector<ad::Var> params;
  auto add = [&params](const nn::Module* m) {
    if (m == nullptr) return;
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  add(gmf_user_.get());
  add(gmf_item_.get());
  add(mlp_user_.get());
  add(mlp_item_.get());
  add(mlp_.get());
  add(output_.get());
  return params;
}

void NCF::Fit(const data::Dataset& train) {
  GNMR_CHECK(train.Validate().ok());
  util::Rng rng(config_.seed);
  auto graph = train.BuildGraph();
  graph::NegativeSampler sampler(graph.get(), train.target_behavior);

  int64_t d = config_.embedding_dim;
  bool use_gmf = variant_ != NcfVariant::kMlp;
  bool use_mlp = variant_ != NcfVariant::kGmf;
  int64_t joint_width = 0;
  if (use_gmf) {
    gmf_user_ = std::make_unique<nn::Embedding>(train.num_users, d, &rng);
    gmf_item_ = std::make_unique<nn::Embedding>(train.num_items, d, &rng);
    joint_width += d;
  }
  if (use_mlp) {
    mlp_user_ = std::make_unique<nn::Embedding>(train.num_users, d, &rng);
    mlp_item_ = std::make_unique<nn::Embedding>(train.num_items, d, &rng);
    std::vector<int64_t> dims = {2 * d};
    for (int64_t h : config_.hidden_dims) dims.push_back(h);
    mlp_ = std::make_unique<nn::Mlp>(dims, nn::Activation::kRelu,
                                     nn::Activation::kRelu, &rng);
    joint_width += config_.hidden_dims.back();
  }
  output_ =
      std::make_unique<nn::Linear>(joint_width, 1, /*use_bias=*/true, &rng);

  std::vector<ad::Var> params = Parameters();
  nn::Adam opt(config_.learning_rate, 0.9, 0.999, 1e-8, config_.weight_decay);

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    auto batches = SamplePointEpoch(*graph, sampler, train.target_behavior,
                                    config_.batch_size,
                                    config_.negatives_per_positive, &rng,
                                    config_.samples_per_user);
    for (const PointBatch& b : batches) {
      ad::Var logits = Predict(b.users, b.items);
      tensor::Tensor labels = tensor::Tensor::FromData(
          {static_cast<int64_t>(b.size()), 1},
          tensor::OwnedVector<float>(b.labels.begin(), b.labels.end()));
      ad::Var loss =
          ad::BceWithLogitsLoss(logits, ad::Var::Constant(std::move(labels)));
      ad::Backward(loss);
      opt.Step(params);
    }
  }
}

void NCF::ScoreItems(int64_t user, const std::vector<int64_t>& items,
                     float* out) {
  GNMR_CHECK(output_ != nullptr) << "Fit() before ScoreItems()";
  std::vector<int64_t> users(items.size(), user);
  ad::Var logits = Predict(users, items);
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = logits.value().at(static_cast<int64_t>(i), 0);
  }
}

}  // namespace baselines
}  // namespace gnmr
