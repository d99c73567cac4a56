// DIPN [Guo et al., KDD 2019]: deep intent prediction network. The
// original predicts real-time purchasing intent from browse/purchase
// streams with a bi-RNN + hierarchical attention. Here (substitution
// listed in README.md, "Model and deviations from the paper"): per
// behavior type, a GRU encodes the user's time-ordered item sequence;
// inter-behavior attention (queried by the user embedding) pools the
// per-behavior states into a user intent representation scored against
// item embeddings. Timestamps come from the dataset's per-user logical
// clocks. Multi-behavior: consumes ALL behavior types.
#ifndef GNMR_BASELINES_DIPN_H_
#define GNMR_BASELINES_DIPN_H_

#include <memory>

#include "src/baselines/recommender.h"
#include "src/graph/interaction_graph.h"
#include "src/nn/embedding.h"
#include "src/nn/linear.h"

namespace gnmr {
namespace baselines {

/// Minimal batched GRU cell built from the autodiff primitives.
class GruCell : public nn::Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  /// One step: x [B, in], h [B, hid] -> new h [B, hid].
  ad::Var Step(const ad::Var& x, const ad::Var& h) const;

  std::vector<ad::Var> Parameters() const override;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  std::unique_ptr<nn::Linear> xz_, hz_;  // update gate
  std::unique_ptr<nn::Linear> xr_, hr_;  // reset gate
  std::unique_ptr<nn::Linear> xh_, hh_;  // candidate
};

class DIPN : public Recommender {
 public:
  explicit DIPN(const BaselineConfig& config) : config_(config) {}
  std::string name() const override { return "DIPN"; }
  void Fit(const data::Dataset& train) override;
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override;

 private:
  /// User intent representations [users.size(), d] from their behavior
  /// sequences.
  ad::Var UserIntent(const std::vector<int64_t>& users) const;
  std::vector<ad::Var> Parameters() const;

  BaselineConfig config_;
  int64_t num_behaviors_ = 0;
  /// sequences_[k][u]: time-ordered item ids of user u under behavior k,
  /// truncated to the most recent max_sequence_length.
  std::vector<std::vector<std::vector<int64_t>>> sequences_;
  std::unique_ptr<nn::Embedding> item_emb_;
  std::unique_ptr<nn::Embedding> user_emb_;
  std::unique_ptr<nn::Embedding> item_bias_;
  std::vector<std::unique_ptr<GruCell>> grus_;  // one per behavior
  std::unique_ptr<nn::Linear> attn_state_, attn_user_;  // attention MLP
  std::unique_ptr<nn::Linear> attn_out_;
  tensor::Tensor cached_intent_;  // [I, d] after Fit
};

}  // namespace baselines
}  // namespace gnmr

#endif  // GNMR_BASELINES_DIPN_H_
