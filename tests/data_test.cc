// Tests for datasets, splits, loaders, statistics and the synthetic
// generators (including the statistical properties the reproduction
// depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/util/csv.h"
#include "src/data/loader.h"
#include "src/data/split.h"
#include "src/data/statistics.h"
#include "src/data/synthetic.h"
#include "src/util/rng.h"

namespace gnmr {
namespace data {
namespace {

Dataset TinyDataset() {
  Dataset d;
  d.name = "tiny";
  d.num_users = 3;
  d.num_items = 4;
  d.behavior_names = {"view", "buy"};
  d.target_behavior = 1;
  d.interactions = {
      {0, 0, 0, 0}, {0, 1, 0, 1}, {0, 1, 1, 2}, {0, 2, 1, 3},
      {1, 1, 0, 0}, {1, 2, 1, 1}, {1, 3, 1, 2},
      {2, 3, 0, 0}, {2, 3, 1, 1},
  };
  return d;
}

// ----------------------------------------------------------------- Dataset ----

TEST(DatasetTest, ValidatePasses) {
  EXPECT_TRUE(TinyDataset().Validate().ok());
}

TEST(DatasetTest, ValidateCatchesBadIds) {
  Dataset d = TinyDataset();
  d.interactions.push_back({5, 0, 0, 0});
  EXPECT_FALSE(d.Validate().ok());
  d = TinyDataset();
  d.interactions.push_back({0, 9, 0, 0});
  EXPECT_FALSE(d.Validate().ok());
  d = TinyDataset();
  d.target_behavior = 7;
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, CountBehavior) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.CountBehavior(0), 4);
  EXPECT_EQ(d.CountBehavior(1), 5);
}

TEST(DatasetTest, BuildGraphMatchesEvents) {
  Dataset d = TinyDataset();
  auto g = d.BuildGraph();
  EXPECT_EQ(g->num_users(), 3);
  EXPECT_EQ(g->NumEdges(1), 5);
  EXPECT_TRUE(g->HasEdge(0, 2, 1));
}

TEST(FilterBehaviorsTest, DropsAndRemaps) {
  Dataset d = TinyDataset();
  Dataset f = FilterBehaviors(d, {false, true});
  EXPECT_EQ(f.num_behaviors(), 1);
  EXPECT_EQ(f.behavior_names[0], "buy");
  EXPECT_EQ(f.target_behavior, 0);
  EXPECT_EQ(static_cast<int64_t>(f.interactions.size()), 5);
  for (const auto& e : f.interactions) EXPECT_EQ(e.behavior, 0);
}

TEST(FilterBehaviorsTest, OnlyTargetHelper) {
  Dataset f = OnlyTargetBehavior(TinyDataset());
  EXPECT_EQ(f.num_behaviors(), 1);
  EXPECT_EQ(f.behavior_names[0], "buy");
}

TEST(FilterBehaviorsDeathTest, CannotDropTarget) {
  Dataset d = TinyDataset();
  EXPECT_DEATH(FilterBehaviors(d, {true, false}), "target");
}

// ------------------------------------------------------------------- Split ----

TEST(SplitTest, HoldsOutLatestTargetInteraction) {
  Dataset d = TinyDataset();
  TrainTestSplit split = LeaveLatestOut(d, /*min_target_interactions=*/2);
  // u0 latest buy: item 2 (ts 3); u1 latest buy: item 3 (ts 2); u2 has only
  // 1 buy -> not held out.
  ASSERT_EQ(split.test.size(), 2u);
  std::map<int64_t, int64_t> held;
  for (const auto& t : split.test) held[t.user] = t.positive_item;
  EXPECT_EQ(held[0], 2);
  EXPECT_EQ(held[1], 3);
  EXPECT_EQ(split.train.interactions.size(), d.interactions.size() - 2);
  // The held-out events are gone from train.
  auto g = split.train.BuildGraph();
  EXPECT_FALSE(g->HasEdge(0, 2, 1));
  EXPECT_FALSE(g->HasEdge(1, 3, 1));
  // Auxiliary behaviors untouched.
  EXPECT_TRUE(g->HasEdge(0, 1, 0));
}

TEST(SplitTest, MinTargetInteractionsRespected) {
  Dataset d = TinyDataset();
  TrainTestSplit split = LeaveLatestOut(d, /*min_target_interactions=*/1);
  EXPECT_EQ(split.test.size(), 3u);  // now u2 also held out
}

TEST(SplitTest, EvalCandidatesExcludePositivesAndDuplicates) {
  Dataset d = TinyDataset();
  TrainTestSplit split = LeaveLatestOut(d, 2);
  util::Rng rng(3);
  auto cands = BuildEvalCandidates(split.train, split.test,
                                   /*num_negatives=*/2, &rng);
  ASSERT_EQ(cands.size(), split.test.size());
  auto g = split.train.BuildGraph();
  for (const auto& c : cands) {
    EXPECT_EQ(c.negatives.size(), 2u);
    std::set<int64_t> uniq(c.negatives.begin(), c.negatives.end());
    EXPECT_EQ(uniq.size(), c.negatives.size());
    for (int64_t neg : c.negatives) {
      EXPECT_NE(neg, c.positive_item);
      EXPECT_FALSE(g->HasEdge(c.user, neg, split.train.target_behavior));
    }
  }
}

// ------------------------------------------------------------------ Loader ----

TEST(LoaderTest, SaveLoadRoundTrip) {
  Dataset d = TinyDataset();
  std::string path = testing::TempDir() + "/gnmr_ds_roundtrip.tsv";
  ASSERT_TRUE(SaveDataset(d, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& l = loaded.value();
  EXPECT_EQ(l.name, d.name);
  EXPECT_EQ(l.num_users, d.num_users);
  EXPECT_EQ(l.num_items, d.num_items);
  EXPECT_EQ(l.behavior_names, d.behavior_names);
  EXPECT_EQ(l.target_behavior, d.target_behavior);
  ASSERT_EQ(l.interactions.size(), d.interactions.size());
  for (size_t i = 0; i < l.interactions.size(); ++i) {
    EXPECT_EQ(l.interactions[i].user, d.interactions[i].user);
    EXPECT_EQ(l.interactions[i].item, d.interactions[i].item);
    EXPECT_EQ(l.interactions[i].behavior, d.interactions[i].behavior);
    EXPECT_EQ(l.interactions[i].timestamp, d.interactions[i].timestamp);
  }
  std::remove(path.c_str());
}

TEST(LoaderTest, RejectsMissingHeader) {
  std::string path = testing::TempDir() + "/gnmr_ds_noheader.tsv";
  ASSERT_TRUE(util::WriteStringToFile(path, "0\t1\t0\t0\n").ok());
  EXPECT_FALSE(LoadDataset(path).ok());
  std::remove(path.c_str());
}

TEST(LoaderTest, LoadRawTsvInfersShape) {
  std::string path = testing::TempDir() + "/gnmr_ds_raw.tsv";
  ASSERT_TRUE(util::WriteStringToFile(
                  path, "# comment\n0\t5\t0\n2\t1\t1\t42\n1\t0\t0\n")
                  .ok());
  auto loaded = LoadRawTsv(path, {"view", "buy"}, 1, "raw-test");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_users, 3);
  EXPECT_EQ(loaded.value().num_items, 6);
  EXPECT_EQ(loaded.value().interactions.size(), 3u);
  EXPECT_EQ(loaded.value().interactions[1].timestamp, 42);
  std::remove(path.c_str());
}

TEST(LoaderTest, LoadRawTsvRejectsBadRows) {
  std::string path = testing::TempDir() + "/gnmr_ds_bad.tsv";
  ASSERT_TRUE(util::WriteStringToFile(path, "0\t1\n").ok());
  EXPECT_FALSE(LoadRawTsv(path, {"a"}, 0).ok());
  std::remove(path.c_str());
}

// Shapes are inferred as max id + 1, so INT64_MAX as an id must be refused
// with a Status instead of overflowing.
TEST(LoaderTest, LoadRawTsvRejectsInt64MaxUserId) {
  std::string path = testing::TempDir() + "/gnmr_ds_max_user.tsv";
  ASSERT_TRUE(
      util::WriteStringToFile(path, "9223372036854775807\t1\t0\n").ok());
  auto loaded = LoadRawTsv(path, {"a"}, 0);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(LoaderTest, LoadRawTsvRejectsInt64MaxItemId) {
  std::string path = testing::TempDir() + "/gnmr_ds_max_item.tsv";
  ASSERT_TRUE(
      util::WriteStringToFile(path, "0\t9223372036854775807\t0\n").ok());
  auto loaded = LoadRawTsv(path, {"a"}, 0);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
  std::remove(path.c_str());
}

// Mutation sweep over both loaders: every single-bit flip, every
// truncation, and header rewrites must come back as a non-OK Status or as
// a dataset that validates, never as an abort or an invalid dataset.
class LoaderMutationTest : public testing::Test {
 protected:
  // Writes `content` and loads it with `load`; returns whether it loaded.
  template <typename Load>
  bool LoadsValid(const std::string& content, const Load& load,
                  const std::string& what) {
    EXPECT_TRUE(util::WriteStringToFile(path_, content).ok());
    util::Result<Dataset> loaded = load(path_);
    if (!loaded.ok()) {
      ++rejected_;
      return false;
    }
    util::Status valid = loaded.value().Validate();
    EXPECT_TRUE(valid.ok()) << what << ": " << valid.ToString();
    ++accepted_;
    return valid.ok();
  }

  template <typename Load>
  void SweepFlipsAndTruncations(const std::string& file, const Load& load) {
    for (size_t i = 0; i < file.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutant = file;
        mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
        LoadsValid(mutant, load,
                   "flip byte " + std::to_string(i) + " bit " +
                       std::to_string(bit));
      }
    }
    for (size_t len = 0; len < file.size(); ++len) {
      LoadsValid(file.substr(0, len), load,
                 "truncated to " + std::to_string(len) + " bytes");
    }
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ = testing::TempDir() + "/gnmr_ds_mutant.tsv";
  int64_t accepted_ = 0;
  int64_t rejected_ = 0;
};

TEST_F(LoaderMutationTest, LoadDatasetFlipsAndTruncations) {
  const std::string saved = testing::TempDir() + "/gnmr_ds_sweep_src.tsv";
  ASSERT_TRUE(SaveDataset(TinyDataset(), saved).ok());
  util::Result<std::string> file = util::ReadFileToString(saved);
  std::remove(saved.c_str());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(LoadsValid(file.value(), LoadDataset, "unmutated"));
  SweepFlipsAndTruncations(file.value(), LoadDataset);
  EXPECT_GT(rejected_, 0);
  EXPECT_GT(accepted_, 1);
}

TEST_F(LoaderMutationTest, LoadDatasetHeaderRewrites) {
  const std::string body =
      "0\t0\t0\t0\n0\t1\t1\t1\n1\t2\t1\t2\n2\t3\t0\t3\n";
  auto with_header = [&](const std::string& users, const std::string& items,
                         const std::string& target,
                         const std::string& behaviors) {
    return "gnmr-v1\ttiny\t" + users + "\t" + items + "\t" + target + "\t" +
           behaviors + "\n" + body;
  };
  EXPECT_TRUE(LoadsValid(with_header("3", "4", "1", "view|buy"), LoadDataset,
                         "unmutated"));
  // Counts: negative, zero, too small for the rows, unparsable, and huge
  // (a huge count is a valid, sparse shape).
  const char* counts[] = {"-1", "0", "2", "-9223372036854775808",
                          "9223372036854775807", "99999999999999999999",
                          "1e3", "", "x"};
  for (const char* c : counts) {
    LoadsValid(with_header(c, "4", "1", "view|buy"), LoadDataset,
               std::string("num_users=") + c);
    LoadsValid(with_header("3", c, "1", "view|buy"), LoadDataset,
               std::string("num_items=") + c);
  }
  for (const char* c : {"-1", "0", "2"}) {
    EXPECT_FALSE(LoadsValid(with_header(c, "4", "1", "view|buy"), LoadDataset,
                            c))
        << "num_users=" << c;
  }
  EXPECT_TRUE(LoadsValid(with_header("9223372036854775807", "4", "1",
                                     "view|buy"),
                         LoadDataset, "huge num_users"));
  // Targets outside [0, K) and unparsable ones.
  for (const char* t : {"-1", "2", "9223372036854775807", "", "buy"}) {
    EXPECT_FALSE(LoadsValid(with_header("3", "4", t, "view|buy"), LoadDataset,
                            std::string("target=") + t))
        << "target=" << t;
  }
  // Behavior lists: empty, empty names, and too short for the rows or the
  // target.
  for (const char* b : {"", "|", "view|", "|buy", "view"}) {
    EXPECT_FALSE(LoadsValid(with_header("3", "4", "1", b), LoadDataset,
                            std::string("behaviors=") + b))
        << "behaviors=" << b;
  }
  // A wrong magic or field count is not a dataset file.
  EXPECT_FALSE(LoadsValid("gnmr-v2\ttiny\t3\t4\t1\tview|buy\n" + body,
                          LoadDataset, "magic"));
  EXPECT_FALSE(LoadsValid("gnmr-v1\ttiny\t3\t4\t1\n" + body, LoadDataset,
                          "five header fields"));
  EXPECT_FALSE(LoadsValid("gnmr-v1\ttiny\t3\t4\t1\tview|buy\tx\n" + body,
                          LoadDataset, "seven header fields"));
}

TEST_F(LoaderMutationTest, LoadRawTsvFlipsTruncationsAndCallerShapes) {
  const std::string file = "# raw\n0\t5\t0\n2\t1\t1\t42\n1\t0\t0\t7\n";
  auto load = [](const std::string& path) {
    return LoadRawTsv(path, {"view", "buy"}, 1, "raw-sweep");
  };
  ASSERT_TRUE(LoadsValid(file, load, "unmutated"));
  SweepFlipsAndTruncations(file, load);
  EXPECT_GT(rejected_, 0);
  EXPECT_GT(accepted_, 1);
  // The caller supplies the behavior list and target: an empty list, an
  // empty name or an out-of-range target is refused whatever the rows.
  const struct {
    std::vector<std::string> names;
    int64_t target;
  } callers[] = {{{}, 0},           {{"view", "buy"}, -1},
                 {{"view", "buy"}, 2}, {{"view", ""}, 1},
                 {{"view"}, 0}};  // behavior 1 in the rows is out of range
  for (const auto& c : callers) {
    EXPECT_FALSE(LoadsValid(
        file,
        [&](const std::string& path) {
          return LoadRawTsv(path, c.names, c.target);
        },
        "caller names=" + std::to_string(c.names.size()) +
            " target=" + std::to_string(c.target)));
  }
}

// -------------------------------------------------------------- Statistics ----

TEST(StatsTest, CountsAndDensity) {
  DatasetStats s = ComputeStats(TinyDataset());
  EXPECT_EQ(s.num_interactions, 9);
  EXPECT_EQ(s.per_behavior[0].second, 4);
  EXPECT_EQ(s.per_behavior[1].second, 5);
  EXPECT_NEAR(s.density, 9.0 / (3 * 4 * 2), 1e-9);
  EXPECT_NEAR(s.avg_interactions_per_user, 3.0, 1e-9);
  EXPECT_NEAR(s.target_user_coverage, 1.0, 1e-9);
}

TEST(StatsTest, GiniZeroForUniform) {
  Dataset d;
  d.name = "uniform";
  d.num_users = 4;
  d.num_items = 4;
  d.behavior_names = {"x"};
  d.target_behavior = 0;
  for (int64_t u = 0; u < 4; ++u)
    for (int64_t j = 0; j < 4; ++j) d.interactions.push_back({u, j, 0, 0});
  DatasetStats s = ComputeStats(d);
  EXPECT_NEAR(s.item_gini, 0.0, 1e-6);
}

TEST(StatsTest, GiniHighForConcentrated) {
  Dataset d;
  d.name = "conc";
  d.num_users = 10;
  d.num_items = 50;
  d.behavior_names = {"x"};
  d.target_behavior = 0;
  for (int64_t u = 0; u < 10; ++u) d.interactions.push_back({u, 0, 0, 0});
  DatasetStats s = ComputeStats(d);
  EXPECT_GT(s.item_gini, 0.9);
}

// --------------------------------------------------------------- Synthetic ----

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig cfg = MovieLensLike(0.1);
  Dataset a = GenerateSynthetic(cfg);
  Dataset b = GenerateSynthetic(cfg);
  ASSERT_EQ(a.interactions.size(), b.interactions.size());
  for (size_t i = 0; i < a.interactions.size(); ++i) {
    EXPECT_EQ(a.interactions[i].user, b.interactions[i].user);
    EXPECT_EQ(a.interactions[i].item, b.interactions[i].item);
    EXPECT_EQ(a.interactions[i].behavior, b.interactions[i].behavior);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  Dataset a = GenerateSynthetic(MovieLensLike(0.1, 1));
  Dataset b = GenerateSynthetic(MovieLensLike(0.1, 2));
  // Counts can coincide at tiny scales; the event content must not.
  size_t n = std::min(a.interactions.size(), b.interactions.size());
  int64_t differing = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a.interactions[i].item != b.interactions[i].item ||
        a.interactions[i].behavior != b.interactions[i].behavior) {
      ++differing;
    }
  }
  EXPECT_GT(differing, static_cast<int64_t>(n / 4));
}

TEST(SyntheticTest, MovieLensShape) {
  Dataset d = GenerateSynthetic(MovieLensLike(0.25));
  ASSERT_TRUE(d.Validate().ok());
  EXPECT_EQ(d.num_behaviors(), 3);
  EXPECT_EQ(d.behavior_names[2], "like");
  EXPECT_EQ(d.target_behavior, 2);
  DatasetStats s = ComputeStats(d);
  // Bucket masses roughly follow the configured quantiles.
  double total = static_cast<double>(s.num_interactions);
  EXPECT_NEAR(s.per_behavior[0].second / total, 0.20, 0.07);  // dislike
  EXPECT_NEAR(s.per_behavior[2].second / total, 0.22, 0.08);  // like
  // Popularity skew present.
  EXPECT_GT(s.item_gini, 0.25);
}

TEST(SyntheticTest, YelpShapeIncludesTip) {
  Dataset d = GenerateSynthetic(YelpLike(0.25));
  ASSERT_TRUE(d.Validate().ok());
  EXPECT_EQ(d.num_behaviors(), 4);
  EXPECT_EQ(d.behavior_names[3], "tip");
  EXPECT_EQ(d.behavior_names[static_cast<size_t>(d.target_behavior)], "like");
  // Tips exist but are rarer than likes.
  EXPECT_GT(d.CountBehavior(3), 0);
  EXPECT_LT(d.CountBehavior(3), d.CountBehavior(2));
}

TEST(SyntheticTest, TaobaoFunnelIsNested) {
  Dataset d = GenerateSynthetic(TaobaoLike(0.25));
  ASSERT_TRUE(d.Validate().ok());
  EXPECT_EQ(d.num_behaviors(), 4);
  EXPECT_EQ(d.behavior_names[3], "purchase");
  EXPECT_EQ(d.target_behavior, 3);
  // Funnel: page views dominate; purchases are rare.
  int64_t pv = d.CountBehavior(0), buy = d.CountBehavior(3);
  EXPECT_GT(pv, 4 * buy);
  // Structural nesting: almost every purchase has a matching page view.
  auto g = d.BuildGraph();
  int64_t nested = 0, total = 0;
  for (const auto& e : d.interactions) {
    if (e.behavior != 3) continue;
    ++total;
    if (g->HasEdge(e.user, e.item, 0)) ++nested;
  }
  ASSERT_GT(total, 0);
  // The funnel leaks (gate_bypass_prob) but most purchases follow a view.
  EXPECT_GT(static_cast<double>(nested) / static_cast<double>(total), 0.55);
}

TEST(SyntheticTest, EveryUserHasMinTargetEvents) {
  for (const SyntheticConfig& cfg :
       {MovieLensLike(0.15), YelpLike(0.15), TaobaoLike(0.15)}) {
    Dataset d = GenerateSynthetic(cfg);
    std::vector<int64_t> count(static_cast<size_t>(d.num_users), 0);
    std::vector<std::set<int64_t>> items(static_cast<size_t>(d.num_users));
    for (const auto& e : d.interactions) {
      if (e.behavior == d.target_behavior &&
          items[static_cast<size_t>(e.user)].insert(e.item).second) {
        count[static_cast<size_t>(e.user)] += 1;
      }
    }
    for (int64_t u = 0; u < d.num_users; ++u) {
      EXPECT_GE(count[static_cast<size_t>(u)], cfg.min_target_per_user)
          << cfg.name << " user " << u;
    }
  }
}

TEST(SyntheticTest, AuxiliaryBehaviorsCorrelateWithTarget) {
  // The reproduction hinges on auxiliary behaviors predicting the target:
  // items a user page-viewed must be far more likely to be purchased than
  // random items. Compute the lift on the Taobao-like funnel.
  Dataset d = GenerateSynthetic(TaobaoLike(0.3));
  auto g = d.BuildGraph();
  int64_t viewed_pairs = 0, viewed_and_bought = 0;
  for (int64_t u = 0; u < d.num_users; ++u) {
    for (int64_t j : g->ItemsOf(u, 0)) {
      ++viewed_pairs;
      if (g->HasEdge(u, j, 3)) ++viewed_and_bought;
    }
  }
  double p_buy_given_view =
      static_cast<double>(viewed_and_bought) / viewed_pairs;
  double p_buy_overall = static_cast<double>(g->NumEdges(3)) /
                         (static_cast<double>(d.num_users) * d.num_items);
  EXPECT_GT(p_buy_given_view, 10.0 * p_buy_overall)
      << "p(buy|view)=" << p_buy_given_view << " p(buy)=" << p_buy_overall;
}

TEST(SyntheticTest, RatingsBucketsAreExclusive) {
  Dataset d = GenerateSynthetic(MovieLensLike(0.2));
  // A (user, item) pair carries at most one rating bucket.
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const auto& e : d.interactions) {
    if (e.behavior > 2) continue;  // buckets only
    auto key = std::make_pair(e.user, e.item);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate rating for user " << e.user << " item " << e.item;
  }
}

TEST(SyntheticTest, ScaleParameterScalesCounts) {
  Dataset small = GenerateSynthetic(MovieLensLike(0.1));
  Dataset big = GenerateSynthetic(MovieLensLike(0.3));
  EXPECT_GT(big.num_users, 2 * small.num_users);
  EXPECT_GT(big.interactions.size(), 2 * small.interactions.size());
}

}  // namespace
}  // namespace data
}  // namespace gnmr
