// Quickstart: generate a small multi-behavior dataset, train GNMR, evaluate
// it with the paper's leave-one-out protocol, and print top-5
// recommendations for a few users.
//
//   ./build/examples/quickstart [--epochs=20] [--scale=0.3]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/gnmr_trainer.h"
#include "src/data/split.h"
#include "src/data/statistics.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.3);
  int64_t epochs = flags.GetInt("epochs", 20);
  flags.CheckOrExit();

  // 1. Data: a Taobao-shaped page-view/favorite/cart/purchase funnel.
  data::Dataset full = data::GenerateSynthetic(data::TaobaoLike(scale));
  std::printf("%s\n\n", data::StatsToString(data::ComputeStats(full)).c_str());

  // 2. Split: hold out each user's latest purchase; sample 99 negatives.
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  util::Rng rng(7);
  // The paper's protocol uses 99 negatives; shrink on toy catalogues.
  int64_t negatives = std::min<int64_t>(99, full.num_items / 3);
  auto candidates =
      data::BuildEvalCandidates(split.train, split.test, negatives, &rng);
  std::printf("train events: %zu, test users: %zu\n\n",
              split.train.interactions.size(), split.test.size());

  // 3. Model: GNMR with the paper's hyperparameters (d=16, C=8, S=2, L=2).
  core::GnmrConfig config;
  config.epochs = epochs;
  config.learning_rate = 1e-2;
  config.verbose = false;
  core::GnmrTrainer trainer(config, split.train);
  std::printf("training GNMR (%lld epochs, %lld parameters)...\n",
              static_cast<long long>(epochs),
              static_cast<long long>(trainer.model().NumParameters()));
  trainer.Train([](const core::EpochStats& s) {
    if (s.epoch % 5 == 0) {
      std::printf("  epoch %2lld  hinge loss %.4f\n",
                  static_cast<long long>(s.epoch), s.mean_loss);
    }
  });

  // 4. Evaluate: HR@K / NDCG@K under 1-positive + 99-negative ranking.
  auto scorer = trainer.MakeScorer();
  eval::RankingMetrics metrics =
      eval::EvaluateRanking(scorer.get(), candidates, {1, 5, 10});
  std::printf("\nevaluation: %s\n\n", metrics.ToString().c_str());

  // 5. Recommend: top-5 unseen items for the first three users.
  auto graph = split.train.BuildGraph();
  for (int64_t user = 0; user < std::min<int64_t>(3, full.num_users);
       ++user) {
    std::vector<std::pair<float, int64_t>> scored;
    for (int64_t item = 0; item < full.num_items; ++item) {
      if (graph->HasEdge(user, item, full.target_behavior)) continue;
      scored.emplace_back(trainer.model().Score(user, item), item);
    }
    std::partial_sort(scored.begin(), scored.begin() + 5, scored.end(),
                      std::greater<>());
    std::printf("user %lld top-5:", static_cast<long long>(user));
    for (int i = 0; i < 5; ++i) {
      std::printf(" item%lld(%.2f)", static_cast<long long>(scored[i].second),
                  scored[i].first);
    }
    std::printf("\n");
  }
  return 0;
}
