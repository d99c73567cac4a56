#include "src/eval/evaluator.h"

#include <sstream>

#include "src/eval/metrics.h"
#include "src/util/check.h"
#include "src/util/string_util.h"

namespace gnmr {
namespace eval {

std::string RankingMetrics::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [n, v] : hr) {
    if (!first) os << " ";
    first = false;
    os << util::StrFormat("HR@%lld=%.4f", static_cast<long long>(n), v);
    auto it = ndcg.find(n);
    if (it != ndcg.end()) {
      os << util::StrFormat(" NDCG@%lld=%.4f", static_cast<long long>(n),
                            it->second);
    }
  }
  return os.str();
}

RankingMetrics EvaluateRanking(Scorer* scorer,
                               const std::vector<data::EvalCandidates>& tests,
                               const std::vector<int64_t>& cutoffs) {
  GNMR_CHECK(scorer != nullptr);
  GNMR_CHECK(!cutoffs.empty());
  RankingMetrics out;
  for (int64_t n : cutoffs) {
    out.hr[n] = 0.0;
    out.ndcg[n] = 0.0;
  }
  if (tests.empty()) return out;

  // Metrics accumulate in test-index order.
  for (const data::EvalCandidates& c : tests) {
    std::vector<int64_t> items;
    items.reserve(c.negatives.size() + 1);
    items.push_back(c.positive_item);
    items.insert(items.end(), c.negatives.begin(), c.negatives.end());
    std::vector<float> scores(items.size(), 0.0f);
    scorer->ScoreItems(c.user, items, scores.data());
    std::vector<float> neg_scores(scores.begin() + 1, scores.end());
    int64_t rank = RankOfPositive(scores[0], neg_scores);
    for (int64_t n : cutoffs) {
      out.hr[n] += HitRatioAtN(rank, n);
      out.ndcg[n] += NdcgAtN(rank, n);
    }
  }
  out.num_users = static_cast<int64_t>(tests.size());
  for (int64_t n : cutoffs) {
    out.hr[n] /= static_cast<double>(out.num_users);
    out.ndcg[n] /= static_cast<double>(out.num_users);
  }
  return out;
}

}  // namespace eval
}  // namespace gnmr
