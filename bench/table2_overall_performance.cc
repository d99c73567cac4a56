// Reproduces Table II: HR@10 and NDCG@10 of all 12 baselines plus GNMR on
// the three paper-shaped datasets. Expected shape (not absolute numbers):
// GNMR best everywhere; multi-behavior baselines (NMTR, DIPN) and the
// graph baseline (NGCF) among the strongest single-model groups; Taobao
// (sparse purchase target) hardest for everyone.
#include <cstdio>

#include "bench/harness.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  // Allow running a subset: --models=BiasMF,GNMR
  std::vector<std::string> models;
  if (flags.Has("models")) {
    for (const std::string& m :
         util::Split(flags.GetString("models", ""), ',')) {
      models.push_back(m);
    }
  } else {
    models = baselines::AllBaselineNames();
    models.push_back("GNMR");
  }
  flags.CheckOrExit();

  std::printf("=== Table II: overall performance (HR@10 / NDCG@10), "
              "scale=%.2f ===\n\n", settings.scale);

  std::vector<bench::ExperimentEnv> envs;
  for (const data::SyntheticConfig& cfg :
       bench::PaperDatasets(settings.scale)) {
    envs.push_back(bench::BuildEnv(cfg, settings.num_negatives));
  }

  util::TablePrinter table({"Model", "ML HR", "ML NDCG", "Yelp HR",
                            "Yelp NDCG", "Taobao HR", "Taobao NDCG",
                            "Train s"});
  for (const std::string& model : models) {
    std::vector<std::string> row = {model};
    double total_seconds = 0.0;
    for (const bench::ExperimentEnv& env : envs) {
      double seconds = 0.0;
      eval::RankingMetrics m;
      if (model == "GNMR") {
        // GNMR is the model under test: average over model seeds so the
        // headline row is robust to init noise (baselines are single-seed;
        // averaging shrinks variance, not the mean).
        util::Stopwatch gnmr_timer;
        m = bench::RunGnmrAveraged(bench::MakeGnmrConfig(settings), env,
                                   {10}, settings.num_seeds);
        seconds = gnmr_timer.ElapsedSeconds();
      } else {
        m = bench::RunBaseline(model, bench::MakeBaselineConfig(settings),
                               env, {10}, &seconds);
      }
      total_seconds += seconds;
      row.push_back(util::TablePrinter::Num(m.hr[10], 3));
      row.push_back(util::TablePrinter::Num(m.ndcg[10], 3));
    }
    row.push_back(util::TablePrinter::Num(total_seconds, 1));
    table.AddRow(row);
    std::printf("done: %s\n", model.c_str());
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("GNMR row: mean over %lld model seeds; baselines single-seed.\n",
              static_cast<long long>(settings.num_seeds));
  std::printf("Paper Table II (for shape comparison): GNMR "
              "ML 0.857/0.575, Yelp 0.848/0.559, Taobao 0.424/0.249; "
              "best baselines NMTR/DIPN/NGCF.\n");
  return 0;
}
