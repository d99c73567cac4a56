// Leave-one-out train/test splitting and the 99-negative evaluation
// candidate protocol (Section IV-A2 of the paper).
#ifndef GNMR_DATA_SPLIT_H_
#define GNMR_DATA_SPLIT_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace gnmr {
namespace data {

/// A held-out test positive for one user.
struct EvalInstance {
  int64_t user = 0;
  int64_t positive_item = 0;
};

/// Train events + held-out target-behavior positives.
struct TrainTestSplit {
  Dataset train;
  std::vector<EvalInstance> test;
};

/// Holds out the latest target-behavior interaction of every user with at
/// least `min_target_interactions` target events (so train retains signal).
///
/// `aux_holdout_prob` removes the held-out pair's auxiliary-behavior events
/// from train with the given probability. The synthetic generator has no
/// real time axis, while in the real datasets the auxiliary events of the
/// held-out (latest) target interaction mostly happen in the same future
/// session — leaving them in train would leak a direct flag on the test
/// positive. 0 keeps all auxiliary events (paper-faithful for timestamped
/// real data); benches use 0.75 (README.md, "Model and deviations from
/// the paper").
TrainTestSplit LeaveLatestOut(const Dataset& full,
                              int64_t min_target_interactions = 2,
                              double aux_holdout_prob = 0.0,
                              util::Rng* rng = nullptr);

/// The candidate set scored at evaluation time: the positive plus
/// `negatives` items the user never touched under the target behavior.
struct EvalCandidates {
  int64_t user = 0;
  int64_t positive_item = 0;
  std::vector<int64_t> negatives;
};

/// Samples `num_negatives` distinct negatives per test instance, excluding
/// the user's train-time target-behavior items and the held-out positive.
/// Deterministic for a given rng state.
std::vector<EvalCandidates> BuildEvalCandidates(
    const Dataset& train, const std::vector<EvalInstance>& test,
    int64_t num_negatives, util::Rng* rng);

}  // namespace data
}  // namespace gnmr

#endif  // GNMR_DATA_SPLIT_H_
