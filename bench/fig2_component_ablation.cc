// Reproduces Figure 2: component ablation of GNMR on the MovieLens- and
// Yelp-shaped datasets.
//   GNMR-be — without the type-specific behavior embedding layer (eta)
//   GNMR-ma — without the cross-behavior message/relation attention (xi)
// Expected shape: full GNMR > both ablations in HR@10 and NDCG@10.
#include <cstdio>

#include "bench/harness.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  flags.CheckOrExit();

  std::printf("=== Figure 2: component ablation, scale=%.2f ===\n\n",
              settings.scale);
  for (const data::SyntheticConfig& dataset_cfg :
       {data::MovieLensLike(settings.scale), data::YelpLike(settings.scale)}) {
    bench::ExperimentEnv env =
        bench::BuildEnv(dataset_cfg, settings.num_negatives);
    util::TablePrinter table({"Variant", "HR@10", "NDCG@10"});

    struct Variant {
      const char* label;
      bool use_eta;
      bool use_xi;
    };
    for (const Variant& v :
         {Variant{"GNMR-be", false, true}, Variant{"GNMR-ma", true, false},
          Variant{"GNMR", true, true}}) {
      core::GnmrConfig cfg = bench::MakeGnmrConfig(settings);
      cfg.use_type_embedding = v.use_eta;
      cfg.use_relation_attention = v.use_xi;
      eval::RankingMetrics m =
          bench::RunGnmrAveraged(cfg, env, {10}, settings.num_seeds);
      table.AddRow({v.label, util::TablePrinter::Num(m.hr[10], 3),
                    util::TablePrinter::Num(m.ndcg[10], 3)});
      std::printf("done: %s on %s\n", v.label, env.dataset_name.c_str());
      std::fflush(stdout);
    }
    std::printf("\n--- %s ---\n%s\n", env.dataset_name.c_str(),
                table.ToString().c_str());
  }
  std::printf("Paper Figure 2 (shape): GNMR > GNMR-be and GNMR > GNMR-ma "
              "on both datasets and both metrics.\n");
  return 0;
}
