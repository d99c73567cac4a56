#include "src/core/gnmr_model.h"

#include "src/nn/pretrain.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/check.h"

namespace gnmr {
namespace core {

namespace {

// eval::Scorer over the model's inference cache.
class CachedScorer : public eval::Scorer {
 public:
  explicit CachedScorer(const GnmrModel* model) : model_(model) {}
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override {
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = model_->Score(user, items[i]);
    }
  }

 private:
  const GnmrModel* model_;
};

}  // namespace

GnmrModel::GnmrModel(const GnmrConfig& config, const data::Dataset& train)
    : config_(config) {
  GNMR_CHECK_EQ(config.embedding_dim % config.num_heads, 0);
  GNMR_CHECK_GE(config.num_layers, 0);
  GNMR_CHECK(train.Validate().ok());
  graph_ = train.BuildGraph();
  util::Rng rng(config.seed);

  if (config.use_pretrain) {
    nn::PretrainConfig pcfg;
    pcfg.dim = config.embedding_dim;
    pcfg.epochs = config.pretrain_epochs;
    nn::PretrainedEmbeddings pre = nn::PretrainEmbeddings(*graph_, pcfg, &rng);
    tensor::Tensor table =
        tensor::ops::ConcatRows({&pre.user, &pre.item});
    // Rescale to the configured init magnitude (the pre-trainer emits
    // 0.1-scale activations) and blend with noise so no two nodes start
    // identical.
    table = tensor::ops::MulScalar(table, config.embedding_init_std / 0.1f);
    tensor::Tensor noise = tensor::Tensor::RandomNormal(
        table.shape(), &rng, 0.0f, 0.2f * config.embedding_init_std);
    node_embedding_ = std::make_unique<nn::Embedding>(
        tensor::ops::Add(table, noise));
  } else {
    node_embedding_ = std::make_unique<nn::Embedding>(
        graph_->num_nodes(), config.embedding_dim, &rng,
        config.embedding_init_std);
  }

  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<GnmrLayer>(config_, graph_.get(),
                                                  &rng));
  }
}

std::vector<ad::Var> GnmrModel::Propagate() const {
  std::vector<ad::Var> out;
  out.reserve(layers_.size() + 1);
  out.push_back(node_embedding_->table());
  for (const auto& layer : layers_) {
    out.push_back(layer->Forward(out.back()));
  }
  return out;
}

ad::Var GnmrModel::ScorePairs(const std::vector<ad::Var>& layers,
                              const std::vector<int64_t>& users,
                              const std::vector<int64_t>& items) const {
  GNMR_CHECK_EQ(users.size(), items.size());
  GNMR_CHECK(!layers.empty());
  std::vector<int64_t> item_nodes;
  item_nodes.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    GNMR_CHECK(users[i] >= 0 && users[i] < num_users());
    GNMR_CHECK(items[i] >= 0 && items[i] < num_items());
    item_nodes.push_back(num_users() + items[i]);
  }
  // Multi-order matching readout (see GnmrConfig::Readout).
  ad::Var multi_order;
  if (config_.readout == GnmrConfig::Readout::kConcat || layers.size() == 1) {
    multi_order = layers.size() == 1 ? layers[0] : ad::ConcatCols(layers);
  } else {
    multi_order = layers[0];
    for (size_t l = 1; l < layers.size(); ++l) {
      multi_order = ad::Add(multi_order, layers[l]);
    }
  }
  ad::Var user_rows = ad::GatherRows(multi_order, users);
  ad::Var item_rows = ad::GatherRows(multi_order, item_nodes);
  return ad::RowDot(user_rows, item_rows);
}

void GnmrModel::RefreshInferenceCache() {
  std::vector<ad::Var> layers = Propagate();
  if (config_.readout == GnmrConfig::Readout::kConcat || layers.size() == 1) {
    std::vector<const tensor::Tensor*> values;
    values.reserve(layers.size());
    for (const ad::Var& l : layers) values.push_back(&l.value());
    inference_cache_ = tensor::ops::ConcatCols(values);
  } else {
    tensor::Tensor sum = layers[0].value();
    for (size_t l = 1; l < layers.size(); ++l) {
      sum = tensor::ops::Add(sum, layers[l].value());
    }
    inference_cache_ = std::move(sum);
  }
  cache_valid_ = true;
}

float GnmrModel::Score(int64_t user, int64_t item) const {
  GNMR_CHECK(cache_valid_) << "call RefreshInferenceCache() before Score()";
  GNMR_CHECK(user >= 0 && user < num_users());
  GNMR_CHECK(item >= 0 && item < num_items());
  int64_t width = inference_cache_.cols();
  const float* u = inference_cache_.data() + user * width;
  const float* v = inference_cache_.data() + (num_users() + item) * width;
  // Same lane-partial association as ServingModel::Score and the serving
  // scans (backend.h), so trainer-side and serving-side evaluation stay
  // bit-identical.
  return static_cast<float>(tensor::LanePartialDot(u, v, width));
}

const tensor::Tensor& GnmrModel::inference_cache() const {
  GNMR_CHECK(cache_valid_) << "call RefreshInferenceCache() first";
  return inference_cache_;
}

void GnmrModel::RestoreInferenceCache(tensor::Tensor cache) {
  GNMR_CHECK_EQ(cache.rank(), 2);
  GNMR_CHECK_EQ(cache.rows(), graph_->num_nodes());
  inference_cache_ = std::move(cache);
  cache_valid_ = true;
}

std::unique_ptr<eval::Scorer> GnmrModel::MakeScorer() {
  GNMR_CHECK(cache_valid_) << "call RefreshInferenceCache() first";
  return std::make_unique<CachedScorer>(this);
}

std::vector<ad::Var> GnmrModel::Parameters() const {
  std::vector<ad::Var> out = node_embedding_->Parameters();
  for (const auto& layer : layers_) {
    auto p = layer->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace core
}  // namespace gnmr
