// Reproduces Table I: statistics of the experimented datasets.
// Paper values (for shape comparison):
//   Yelp    19800 users  22734 items  1.4e6 interactions {Tip,Dislike,Neutral,Like}
//   ML10M   67788 users   8704 items  9.9e6 interactions {Dislike,Neutral,Like}
//   Taobao 147894 users  99037 items  7.6e6 interactions {PV,Fav,Cart,Purchase}
// Our synthetic substitutes are scaled down (README.md, "Model and
// deviations from the paper") but preserve behavior-type structure,
// per-user density ordering and popularity skew.
#include <cstdio>

#include "bench/harness.h"
#include "src/data/statistics.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gnmr;
  util::Flags flags(argc, argv);
  bench::RunSettings settings = bench::SettingsFromFlags(flags);
  flags.CheckOrExit();

  std::printf("=== Table I: dataset statistics (synthetic substitutes, "
              "scale=%.2f) ===\n\n", settings.scale);
  util::TablePrinter table({"Dataset", "User #", "Item #", "Interaction #",
                            "Avg/user", "Gini", "Behavior types"});
  for (const data::SyntheticConfig& cfg :
       bench::PaperDatasets(settings.scale)) {
    data::Dataset d = data::GenerateSynthetic(cfg);
    data::DatasetStats s = data::ComputeStats(d);
    std::string behaviors;
    for (size_t k = 0; k < s.per_behavior.size(); ++k) {
      if (k > 0) behaviors += ", ";
      behaviors += s.per_behavior[k].first;
    }
    table.AddRow({s.name, std::to_string(s.num_users),
                  std::to_string(s.num_items),
                  std::to_string(s.num_interactions),
                  util::TablePrinter::Num(s.avg_interactions_per_user, 1),
                  util::TablePrinter::Num(s.item_gini, 3), behaviors});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Per-behavior interaction counts:\n");
  for (const data::SyntheticConfig& cfg :
       bench::PaperDatasets(settings.scale)) {
    data::Dataset d = data::GenerateSynthetic(cfg);
    std::printf("%s\n", data::StatsToString(data::ComputeStats(d)).c_str());
  }
  return 0;
}
