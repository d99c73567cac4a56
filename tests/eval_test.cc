// Tests for ranking metrics, the leave-one-out evaluator and the
// retrieval recall harness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/core/model_io.h"
#include "src/eval/evaluator.h"
#include "src/eval/metrics.h"
#include "src/eval/retrieval_recall.h"
#include "src/serve/exact_retriever.h"
#include "src/util/rng.h"

namespace gnmr {
namespace eval {
namespace {

// ----------------------------------------------------------------- metrics ----

TEST(MetricsTest, HitRatioBoundary) {
  EXPECT_EQ(HitRatioAtN(0, 10), 1.0);
  EXPECT_EQ(HitRatioAtN(9, 10), 1.0);
  EXPECT_EQ(HitRatioAtN(10, 10), 0.0);
  EXPECT_EQ(HitRatioAtN(0, 1), 1.0);
  EXPECT_EQ(HitRatioAtN(1, 1), 0.0);
}

TEST(MetricsTest, NdcgValues) {
  EXPECT_NEAR(NdcgAtN(0, 10), 1.0, 1e-12);               // 1/log2(2)
  EXPECT_NEAR(NdcgAtN(1, 10), 1.0 / std::log2(3.0), 1e-12);
  EXPECT_NEAR(NdcgAtN(9, 10), 1.0 / std::log2(11.0), 1e-12);
  EXPECT_EQ(NdcgAtN(10, 10), 0.0);
}

TEST(MetricsTest, NdcgMonotonicInRank) {
  for (int64_t r = 0; r + 1 < 10; ++r) {
    EXPECT_GT(NdcgAtN(r, 10), NdcgAtN(r + 1, 10));
  }
}

TEST(MetricsTest, RankOfPositiveStrict) {
  EXPECT_EQ(RankOfPositive(5.0f, {1.0f, 2.0f, 3.0f}), 0);
  EXPECT_EQ(RankOfPositive(2.5f, {1.0f, 2.0f, 3.0f}), 1);
  EXPECT_EQ(RankOfPositive(0.0f, {1.0f, 2.0f, 3.0f}), 3);
}

TEST(MetricsTest, RankOfPositiveTiesSplit) {
  // 4 ties -> rank credit of 2.
  EXPECT_EQ(RankOfPositive(1.0f, {1.0f, 1.0f, 1.0f, 1.0f}), 2);
  // 1 greater + 2 ties -> 1 + 1 = 2.
  EXPECT_EQ(RankOfPositive(1.0f, {2.0f, 1.0f, 1.0f}), 2);
}

// --------------------------------------------------------------- evaluator ----

// Scores items by a fixed per-(user, item) table; unknown pairs get 0.
class TableScorer : public Scorer {
 public:
  void Set(int64_t user, int64_t item, float score) {
    table_[{user, item}] = score;
  }
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override {
    for (size_t i = 0; i < items.size(); ++i) {
      auto it = table_.find({user, items[i]});
      out[i] = it == table_.end() ? 0.0f : it->second;
    }
  }

 private:
  std::map<std::pair<int64_t, int64_t>, float> table_;
};

std::vector<data::EvalCandidates> TwoUsers() {
  data::EvalCandidates a;
  a.user = 0;
  a.positive_item = 10;
  a.negatives = {11, 12, 13, 14};
  data::EvalCandidates b;
  b.user = 1;
  b.positive_item = 20;
  b.negatives = {21, 22, 23, 24};
  return {a, b};
}

TEST(EvaluatorTest, PerfectScorerGetsFullMarks) {
  TableScorer scorer;
  scorer.Set(0, 10, 10.0f);
  scorer.Set(1, 20, 10.0f);
  RankingMetrics m = EvaluateRanking(&scorer, TwoUsers(), {1, 5});
  EXPECT_EQ(m.num_users, 2);
  EXPECT_NEAR(m.hr[1], 1.0, 1e-12);
  EXPECT_NEAR(m.ndcg[1], 1.0, 1e-12);
  EXPECT_NEAR(m.hr[5], 1.0, 1e-12);
}

TEST(EvaluatorTest, WorstScorerGetsZeroAtSmallN) {
  TableScorer scorer;
  // Positive scored below all negatives for user 0; user 1 perfect.
  for (int64_t neg : {11, 12, 13, 14}) scorer.Set(0, neg, 5.0f);
  scorer.Set(0, 10, -1.0f);
  scorer.Set(1, 20, 10.0f);
  RankingMetrics m = EvaluateRanking(&scorer, TwoUsers(), {1, 3, 5});
  EXPECT_NEAR(m.hr[1], 0.5, 1e-12);   // only user 1 hits at 1
  EXPECT_NEAR(m.hr[3], 0.5, 1e-12);   // user 0 at rank 4
  EXPECT_NEAR(m.hr[5], 1.0, 1e-12);   // both within 5 candidates
  EXPECT_NEAR(m.ndcg[1], 0.5, 1e-12);
}

TEST(EvaluatorTest, MidRankComputedCorrectly) {
  TableScorer scorer;
  scorer.Set(0, 10, 5.0f);
  scorer.Set(0, 11, 9.0f);
  scorer.Set(0, 12, 7.0f);  // two negatives above positive -> rank 2
  scorer.Set(1, 20, 1.0f);  // all negatives at 0 -> rank 0
  RankingMetrics m = EvaluateRanking(&scorer, TwoUsers(), {3});
  EXPECT_NEAR(m.hr[3], 1.0, 1e-12);
  double expected_ndcg = (1.0 / std::log2(4.0) + 1.0) / 2.0;
  EXPECT_NEAR(m.ndcg[3], expected_ndcg, 1e-12);
}

TEST(EvaluatorTest, EmptyTestSetYieldsZeros) {
  TableScorer scorer;
  RankingMetrics m = EvaluateRanking(&scorer, {}, {10});
  EXPECT_EQ(m.num_users, 0);
  EXPECT_EQ(m.hr[10], 0.0);
}

TEST(EvaluatorTest, ToStringContainsAllCutoffs) {
  TableScorer scorer;
  scorer.Set(0, 10, 1.0f);
  scorer.Set(1, 20, 1.0f);
  RankingMetrics m = EvaluateRanking(&scorer, TwoUsers(), {1, 10});
  std::string s = m.ToString();
  EXPECT_NE(s.find("HR@1="), std::string::npos);
  EXPECT_NE(s.find("HR@10="), std::string::npos);
  EXPECT_NE(s.find("NDCG@10="), std::string::npos);
}

// -------------------------------------------------------- retrieval recall ----

TEST(RetrievalRecallTest, ExactAgainstItselfIsPerfect) {
  core::ServingModel m;
  m.num_users = 6;
  m.num_items = 40;
  util::Rng rng(29);
  m.embeddings = tensor::Tensor::RandomNormal({46, 5}, &rng);
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  serve::ExactRetriever a(model), b(model);
  std::vector<int64_t> users = {0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RetrievalRecallAtK(a, b, users, 10), 1.0);
  EXPECT_DOUBLE_EQ(RetrievalRecallAtK(a, b, {}, 10), 1.0);
}

}  // namespace
}  // namespace eval
}  // namespace gnmr
