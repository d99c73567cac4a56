// Autoregressive collaborative filtering baselines.
//
// NADE [Zheng et al., ICML 2016] factorises p(x_u) autoregressively over
// items with shared parameters. Exact training sums over item orderings;
// following the paper's ordering-sampling trick we draw one random split
// of each user's history per step: hide a random positive, encode the rest
// with tied weights, and predict the hidden item against sampled
// negatives. This "subset autoregression" keeps the parameter sharing and
// ordering-average that give NADE its strength at a CPU-tractable cost
// (substitution listed in README.md, "Model and deviations from the
// paper").
//
// CF-UIcA [Du et al., AAAI 2018] co-autoregresses over users AND items:
// the score for (u, i) combines a user-side encoding of u's history with
// an item-side encoding of i's history. Implemented with the same
// hidden-positive training scheme on both sides.
#ifndef GNMR_BASELINES_AUTOREGRESSIVE_H_
#define GNMR_BASELINES_AUTOREGRESSIVE_H_

#include <memory>

#include "src/baselines/recommender.h"
#include "src/graph/interaction_graph.h"
#include "src/nn/embedding.h"
#include "src/nn/linear.h"

namespace gnmr {
namespace baselines {

class NADE : public Recommender {
 public:
  explicit NADE(const BaselineConfig& config) : config_(config) {}
  std::string name() const override { return "NADE"; }
  void Fit(const data::Dataset& train) override;
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override;

 private:
  BaselineConfig config_;
  std::shared_ptr<graph::MultiBehaviorGraph> graph_;
  int64_t target_behavior_ = 0;
  std::unique_ptr<nn::Embedding> history_emb_;  // tied input embeddings
  std::unique_ptr<nn::Embedding> output_emb_;   // item output embeddings
  std::unique_ptr<nn::Embedding> output_bias_;  // per-item bias
  std::unique_ptr<nn::Linear> hidden_;          // shared hidden transform
};

class CFUIcA : public Recommender {
 public:
  explicit CFUIcA(const BaselineConfig& config) : config_(config) {}
  std::string name() const override { return "CF-UIcA"; }
  void Fit(const data::Dataset& train) override;
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override;

 private:
  BaselineConfig config_;
  std::shared_ptr<graph::MultiBehaviorGraph> graph_;
  int64_t target_behavior_ = 0;
  // User-side autoregression (encodes u's item history).
  std::unique_ptr<nn::Embedding> item_hist_emb_;
  std::unique_ptr<nn::Linear> user_hidden_;
  std::unique_ptr<nn::Embedding> item_out_emb_;
  // Item-side autoregression (encodes i's user history).
  std::unique_ptr<nn::Embedding> user_hist_emb_;
  std::unique_ptr<nn::Linear> item_hidden_;
  std::unique_ptr<nn::Embedding> user_out_emb_;
  std::unique_ptr<nn::Embedding> item_bias_;
};

}  // namespace baselines
}  // namespace gnmr

#endif  // GNMR_BASELINES_AUTOREGRESSIVE_H_
