#include "src/baselines/nmtr.h"

#include "src/baselines/common.h"
#include "src/graph/negative_sampler.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ad_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace baselines {

ad::Var NMTR::CascadeLogit(const std::vector<int64_t>& users,
                           const std::vector<int64_t>& items,
                           size_t upto) const {
  ad::Var p = user_emb_->Lookup(users);
  ad::Var q = item_emb_->Lookup(items);
  ad::Var interaction = ad::Mul(p, q);  // shared GMF feature
  ad::Var logit;
  for (size_t pos = 0; pos <= upto; ++pos) {
    ad::Var head = heads_[pos]->Forward(interaction);  // [n, 1]
    if (logit.defined()) {
      // Couple to the previous stage with a learnable weight.
      logit = ad::Add(head, ad::Mul(logit, couplings_[pos]));
    } else {
      logit = head;
    }
  }
  return logit;
}

void NMTR::Fit(const data::Dataset& train) {
  GNMR_CHECK(train.Validate().ok());
  util::Rng rng(config_.seed);
  graph_ = train.BuildGraph();

  // Cascade order: auxiliary behaviors in id order, target last.
  for (int64_t k = 0; k < train.num_behaviors(); ++k) {
    if (k != train.target_behavior) cascade_order_.push_back(k);
  }
  cascade_order_.push_back(train.target_behavior);

  int64_t d = config_.embedding_dim;
  user_emb_ = std::make_unique<nn::Embedding>(train.num_users, d, &rng);
  item_emb_ = std::make_unique<nn::Embedding>(train.num_items, d, &rng);
  for (size_t pos = 0; pos < cascade_order_.size(); ++pos) {
    heads_.push_back(std::make_unique<nn::Linear>(d, 1, true, &rng));
    couplings_.push_back(
        ad::Var::Param(tensor::Tensor::Full({1, 1}, 0.5f)));
  }
  std::vector<ad::Var> params = {user_emb_->table(), item_emb_->table()};
  for (const auto& head : heads_) {
    auto p = head->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const auto& c : couplings_) params.push_back(c);
  nn::Adam opt(config_.learning_rate, 0.9, 0.999, 1e-8, config_.weight_decay);

  // One negative sampler per behavior: negatives are behavior-specific.
  std::vector<std::unique_ptr<graph::NegativeSampler>> samplers;
  for (int64_t k = 0; k < train.num_behaviors(); ++k) {
    samplers.push_back(
        std::make_unique<graph::NegativeSampler>(graph_.get(), k));
  }

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Multi-task pass: each cascade position trains on its own behavior's
    // interactions (all tasks share the embeddings).
    for (size_t pos = 0; pos < cascade_order_.size(); ++pos) {
      int64_t behavior = cascade_order_[pos];
      auto batches = SamplePointEpoch(*graph_, *samplers[static_cast<size_t>(
                                          behavior)],
                                      behavior, config_.batch_size,
                                      config_.negatives_per_positive, &rng,
                                      config_.samples_per_user);
      for (const PointBatch& b : batches) {
        ad::Var logits = CascadeLogit(b.users, b.items, pos);
        tensor::Tensor labels = tensor::Tensor::FromData(
            {static_cast<int64_t>(b.size()), 1},
            tensor::OwnedVector<float>(b.labels.begin(), b.labels.end()));
        ad::Var loss = ad::BceWithLogitsLoss(
            logits, ad::Var::Constant(std::move(labels)));
        ad::Backward(loss);
        opt.Step(params);
      }
    }
  }
}

void NMTR::ScoreItems(int64_t user, const std::vector<int64_t>& items,
                      float* out) {
  GNMR_CHECK(user_emb_ != nullptr) << "Fit() before ScoreItems()";
  std::vector<int64_t> users(items.size(), user);
  ad::Var logits = CascadeLogit(users, items, cascade_order_.size() - 1);
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = logits.value().at(static_cast<int64_t>(i), 0);
  }
}

}  // namespace baselines
}  // namespace gnmr
