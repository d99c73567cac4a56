// Reproduces Figure 3: impact of model depth. Trains GNMR with L in
// {0, 1, 2, 3} propagation layers on the MovieLens- and Yelp-shaped
// datasets and reports the relative change of HR@10 / NDCG@10 versus the
// L = 2 reference (the paper plots percentage decrease vs GNMR-2).
// Expected shape: L=0 clearly worst; L=2 and L=3 close; L=1 in between.
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  flags.CheckOrExit();
  const std::vector<int64_t> depths = {0, 1, 2, 3};

  std::printf("=== Figure 3: impact of propagation depth, scale=%.2f ===\n\n",
              settings.scale);
  for (const data::SyntheticConfig& dataset_cfg :
       {data::MovieLensLike(settings.scale), data::YelpLike(settings.scale)}) {
    bench::ExperimentEnv env =
        bench::BuildEnv(dataset_cfg, settings.num_negatives);
    std::map<int64_t, eval::RankingMetrics> results;
    for (int64_t depth : depths) {
      core::GnmrConfig cfg = bench::MakeGnmrConfig(settings);
      cfg.num_layers = depth;
      results[depth] =
          bench::RunGnmrAveraged(cfg, env, {10}, settings.num_seeds);
      std::printf("done: GNMR-%lld on %s\n", static_cast<long long>(depth),
                  env.dataset_name.c_str());
      std::fflush(stdout);
    }
    const eval::RankingMetrics& ref = results[2];
    util::TablePrinter table(
        {"Depth", "HR@10", "NDCG@10", "HR vs L=2", "NDCG vs L=2"});
    for (int64_t depth : depths) {
      const eval::RankingMetrics& m = results[depth];
      double hr_pct = ref.hr.at(10) > 0
                          ? 100.0 * (m.hr.at(10) - ref.hr.at(10)) /
                                ref.hr.at(10)
                          : 0.0;
      double ndcg_pct = ref.ndcg.at(10) > 0
                            ? 100.0 * (m.ndcg.at(10) - ref.ndcg.at(10)) /
                                  ref.ndcg.at(10)
                            : 0.0;
      table.AddRow({"GNMR-" + std::to_string(depth),
                    util::TablePrinter::Num(m.hr.at(10), 3),
                    util::TablePrinter::Num(m.ndcg.at(10), 3),
                    util::TablePrinter::Pct(hr_pct, 1),
                    util::TablePrinter::Pct(ndcg_pct, 1)});
    }
    std::printf("\n--- %s ---\n%s\n", env.dataset_name.c_str(),
                table.ToString().c_str());
  }
  std::printf("Paper Figure 3 (shape): HR/NDCG drop up to ~20%% at L=0; "
              "L=2/L=3 within a few percent of each other.\n");
  return 0;
}
