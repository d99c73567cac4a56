// Scenario: bring your own interaction log. Writes a raw TSV
// (user \t item \t behavior \t timestamp), loads it with LoadRawTsv,
// trains GNMR on it, and round-trips the dataset through the native
// gnmr-v1 format.
//
//   ./build/examples/custom_dataset [--epochs=15]
#include <cstdio>
#include <string>

#include "src/core/gnmr_trainer.h"
#include "src/data/loader.h"
#include "src/data/split.h"
#include "src/data/statistics.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/util/csv.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  int64_t epochs = flags.GetInt("epochs", 15);
  std::string dir = flags.GetString("dir", "/tmp");
  flags.CheckOrExit();

  // 1. Produce a raw log (stand-in for your exported production data).
  //    Columns: user_id item_id behavior_id [timestamp]; dense 0-based ids.
  std::string raw_path = dir + "/my_interactions.tsv";
  {
    data::Dataset d = data::GenerateSynthetic(data::YelpLike(0.2));
    std::string blob = "# user\titem\tbehavior\ttimestamp\n";
    for (const graph::Interaction& e : d.interactions) {
      blob += std::to_string(e.user) + "\t" + std::to_string(e.item) + "\t" +
              std::to_string(e.behavior) + "\t" +
              std::to_string(e.timestamp) + "\n";
    }
    util::Status s = util::WriteStringToFile(raw_path, blob);
    if (!s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 2. Load it, declaring the behavior vocabulary and the target behavior.
  auto loaded = data::LoadRawTsv(raw_path, {"dislike", "neutral", "like",
                                            "tip"},
                                 /*target_behavior=*/2, "my-dataset");
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = std::move(loaded).value();
  std::printf("loaded: %s\n\n",
              data::StatsToString(data::ComputeStats(dataset)).c_str());

  // 3. Save in the native format (single-file, self-describing header).
  std::string native_path = dir + "/my_dataset.gnmr.tsv";
  util::Status s = data::SaveDataset(dataset, native_path);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("saved native copy to %s\n", native_path.c_str());

  // 4. Train + evaluate GNMR.
  data::TrainTestSplit split = data::LeaveLatestOut(dataset);
  util::Rng rng(3);
  auto candidates =
      data::BuildEvalCandidates(split.train, split.test, 50, &rng);
  core::GnmrConfig config;
  config.epochs = epochs;
  config.learning_rate = 1e-2;
  core::GnmrTrainer trainer(config, split.train);
  trainer.Train();
  auto scorer = trainer.MakeScorer();
  eval::RankingMetrics metrics =
      eval::EvaluateRanking(scorer.get(), candidates, {5, 10});
  std::printf("GNMR on your data: %s\n", metrics.ToString().c_str());

  std::remove(raw_path.c_str());
  std::remove(native_path.c_str());
  return 0;
}
