// Scenario: rating-bucket behaviors (MovieLens-style). Shows why modeling
// dislike/neutral ratings as *behaviors* beats collapsing everything into
// "liked / not liked": trains GNMR on (a) all three rating buckets and
// (b) only the like bucket, and compares — a two-row slice of the paper's
// Table IV.
//
//   ./build/examples/movielens_ratings [--scale=0.4] [--epochs=25]
#include <algorithm>
#include <cstdio>

#include "src/core/gnmr_trainer.h"
#include "src/data/split.h"
#include "src/data/statistics.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/util/flags.h"
#include "src/util/table_printer.h"

namespace {

using namespace gnmr;

eval::RankingMetrics TrainAndEval(
    const data::Dataset& train,
    const std::vector<data::EvalCandidates>& candidates, int64_t epochs) {
  core::GnmrConfig config;
  config.epochs = epochs;
  config.learning_rate = 1e-2;
  core::GnmrTrainer trainer(config, train);
  trainer.Train();
  auto scorer = trainer.MakeScorer();
  return eval::EvaluateRanking(scorer.get(), candidates, {10});
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.4);
  int64_t epochs = flags.GetInt("epochs", 25);
  flags.CheckOrExit();

  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(scale));
  std::printf("%s\n\n", data::StatsToString(data::ComputeStats(full)).c_str());

  data::TrainTestSplit split = data::LeaveLatestOut(full);
  util::Rng rng(11);
  // The paper's protocol uses 99 negatives; shrink on toy catalogues.
  int64_t negatives = std::min<int64_t>(99, full.num_items / 3);
  auto candidates =
      data::BuildEvalCandidates(split.train, split.test, negatives, &rng);

  std::printf("training GNMR on all rating buckets...\n");
  eval::RankingMetrics all_behaviors =
      TrainAndEval(split.train, candidates, epochs);

  std::printf("training GNMR on the like bucket only...\n");
  data::Dataset like_only = data::OnlyTargetBehavior(split.train);
  eval::RankingMetrics only_like =
      TrainAndEval(like_only, candidates, epochs);

  util::TablePrinter table({"Training data", "HR@10", "NDCG@10"});
  table.AddRow({"dislike + neutral + like",
                util::TablePrinter::Num(all_behaviors.hr[10], 3),
                util::TablePrinter::Num(all_behaviors.ndcg[10], 3)});
  table.AddRow({"like only",
                util::TablePrinter::Num(only_like.hr[10], 3),
                util::TablePrinter::Num(only_like.ndcg[10], 3)});
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("Auxiliary rating buckets lift the like-prediction quality "
              "(paper Table IV: 0.857 vs 0.835 HR on MovieLens).\n");
  return 0;
}
