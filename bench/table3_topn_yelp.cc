// Reproduces Table III: HR@N / NDCG@N on the Yelp-shaped dataset for
// N in {1, 3, 5, 7, 9}, for the subset of models the paper lists there
// (BiasMF, NCF-N, AutoRec, NADE, CF-UIcA, NMTR) plus GNMR. Expected
// shape: GNMR leads at every cutoff, with the gap widest at small N.
#include <cstdio>

#include "bench/harness.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  flags.CheckOrExit();
  const std::vector<int64_t> cutoffs = {1, 3, 5, 7, 9};
  const std::vector<std::string> models = {"BiasMF", "NCF-N",   "AutoRec",
                                           "NADE",   "CF-UIcA", "NMTR",
                                           "GNMR"};

  std::printf("=== Table III: top-N ranking on Yelp-like data, "
              "scale=%.2f ===\n\n", settings.scale);
  bench::ExperimentEnv env = bench::BuildEnv(
      data::YelpLike(settings.scale), settings.num_negatives);

  util::TablePrinter table({"Model", "HR@1", "HR@3", "HR@5", "HR@7", "HR@9",
                            "N@1", "N@3", "N@5", "N@7", "N@9"});
  for (const std::string& model : models) {
    eval::RankingMetrics m;
    if (model == "GNMR") {
      m = bench::RunGnmr(bench::MakeGnmrConfig(settings), env, cutoffs);
    } else {
      m = bench::RunBaseline(model, bench::MakeBaselineConfig(settings), env,
                             cutoffs);
    }
    std::vector<std::string> row = {model};
    for (int64_t n : cutoffs) {
      row.push_back(util::TablePrinter::Num(m.hr[n], 3));
    }
    for (int64_t n : cutoffs) {
      row.push_back(util::TablePrinter::Num(m.ndcg[n], 3));
    }
    table.AddRow(row);
    std::printf("done: %s\n", model.c_str());
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("Paper Table III (shape): GNMR 0.320/0.590/0.700/0.784/0.831 "
              "HR, best at every N.\n");
  return 0;
}
