// Leave-one-out ranking evaluator: score 1 positive + 99 negatives per
// user, report HR@N and NDCG@N averaged over users.
#ifndef GNMR_EVAL_EVALUATOR_H_
#define GNMR_EVAL_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/data/split.h"

namespace gnmr {
namespace eval {

/// Interface every recommender implements for evaluation: score a list of
/// candidate items for one user (higher = more likely interaction under
/// the target behavior).
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Writes items.size() scores into `out`. Implementations must tolerate
  /// concurrent calls for different users (read-only over trained state).
  virtual void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                          float* out) = 0;
};

/// HR@N / NDCG@N per cutoff, averaged over evaluated users.
struct RankingMetrics {
  std::map<int64_t, double> hr;
  std::map<int64_t, double> ndcg;
  int64_t num_users = 0;

  /// e.g. "HR@10=0.857 NDCG@10=0.575" for all cutoffs.
  std::string ToString() const;
};

/// Scores every candidate set with `scorer` and averages metrics at every
/// cutoff in `cutoffs`. Per-user contributions accumulate in test-index
/// order.
RankingMetrics EvaluateRanking(Scorer* scorer,
                               const std::vector<data::EvalCandidates>& tests,
                               const std::vector<int64_t>& cutoffs);

}  // namespace eval
}  // namespace gnmr

#endif  // GNMR_EVAL_EVALUATOR_H_
