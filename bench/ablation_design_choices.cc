// Ablation bench for this reproduction's own design choices (beyond the
// paper's Figure 2): neighbor normalisation (the paper's Eq. 2 sum vs the
// mean / sqrt-degree used here), multi-order readout (concat vs summed
// layers), autoencoder pre-training vs random init, and the gate vs
// uniform behavior fusion. Justifies the defaults listed in README.md,
// "Model and deviations from the paper".
#include <cstdio>

#include "bench/harness.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  flags.CheckOrExit();

  std::printf("=== Design-choice ablations (GNMR, scale=%.2f) ===\n\n",
              settings.scale);
  for (const data::SyntheticConfig& dataset_cfg :
       {data::YelpLike(settings.scale), data::TaobaoLike(settings.scale)}) {
    bench::ExperimentEnv env =
        bench::BuildEnv(dataset_cfg, settings.num_negatives);
    util::TablePrinter table({"Variant", "HR@10", "NDCG@10"});

    struct Variant {
      const char* label;
      void (*apply)(core::GnmrConfig*);
    };
    const Variant variants[] = {
        {"default (sqrt-deg, concat, pretrain)", [](core::GnmrConfig*) {}},
        {"sum aggregation (paper Eq. 2)",
         [](core::GnmrConfig* c) {
           c->neighbor_norm = graph::NeighborNorm::kSum;
         }},
        {"mean aggregation",
         [](core::GnmrConfig* c) {
           c->neighbor_norm = graph::NeighborNorm::kMean;
         }},
        {"summed-layer readout",
         [](core::GnmrConfig* c) {
           c->readout = core::GnmrConfig::Readout::kSumLayers;
         }},
        {"random init (no pretrain)",
         [](core::GnmrConfig* c) { c->use_pretrain = false; }},
        {"uniform fusion (no gate)",
         [](core::GnmrConfig* c) { c->use_behavior_gate = false; }},
    };
    for (const Variant& v : variants) {
      core::GnmrConfig cfg = bench::MakeGnmrConfig(settings);
      v.apply(&cfg);
      eval::RankingMetrics m = bench::RunGnmr(cfg, env, {10});
      table.AddRow({v.label, util::TablePrinter::Num(m.hr[10], 3),
                    util::TablePrinter::Num(m.ndcg[10], 3)});
      std::printf("done: %s on %s\n", v.label, env.dataset_name.c_str());
      std::fflush(stdout);
    }
    std::printf("\n--- %s ---\n%s\n", env.dataset_name.c_str(),
                table.ToString().c_str());
  }
  return 0;
}
