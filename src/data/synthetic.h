// Synthetic multi-behavior dataset generators.
//
// The paper evaluates on MovieLens-10M, Yelp and Taobao, which cannot be
// redistributed with this repository. These generators produce statistically
// matched substitutes from a latent-factor ground-truth model (README.md,
// "Model and deviations from the paper"):
//
//   affinity(i,j) = u_i . q_j + w_pop * pop_j + noise
//
// Every behavior type is a different noisy view of the same affinity, so
// auxiliary behaviors carry real signal about the target behavior — the
// property the paper's multi-behavior experiments depend on. Item exposure
// follows a Zipf popularity law, matching the heavy-tailed degree
// distributions of the real datasets.
//
// Two generation styles cover the paper's datasets:
//  * kRatings — every sampled (user, item) pair is a rating, bucketed into
//    mutually exclusive behaviors by affinity quantile (MovieLens: dislike /
//    neutral / like; Yelp adds an "extra" tip behavior fired on
//    high-affinity pairs).
//  * kFunnel — nested engagement stages (Taobao: page-view > favorite >
//    cart > purchase); stage s fires only if its gate stage fired, with
//    fresh per-stage noise so the funnel leaks realistically.
#ifndef GNMR_DATA_SYNTHETIC_H_
#define GNMR_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"

namespace gnmr {
namespace data {

/// A mutually exclusive affinity-quantile bucket (ratings style).
struct RatingBucketSpec {
  std::string name;
  /// Bucket covers affinities in quantile range [lo_q, hi_q).
  double lo_q = 0.0;
  double hi_q = 1.0;
  /// Probability an event in this bucket is actually observed.
  double keep_prob = 1.0;
  bool is_target = false;
};

/// An additional non-exclusive behavior (ratings style), e.g. Yelp "tip".
struct ExtraBehaviorSpec {
  std::string name;
  /// Fires only on pairs with affinity quantile >= min_q ...
  double min_q = 0.5;
  /// ... with this probability.
  double prob = 0.3;
  /// Fraction of this behavior's driving signal that lives in its own
  /// latent subspace (0 = purely the shared affinity). Heterogeneous
  /// subspaces are what make behavior-type-aware models (attention, gates)
  /// outperform uniform behavior fusion.
  double subspace_blend = 0.0;
};

/// One stage of an engagement funnel (funnel style).
struct FunnelStageSpec {
  std::string name;
  /// Fires when affinity + fresh noise exceeds this quantile cutoff.
  double min_q = 0.0;
  /// Stddev of the fresh per-stage noise.
  double extra_noise = 0.2;
  /// Probability the stage is observed given it qualifies.
  double keep_prob = 1.0;
  /// Index of the stage that must have fired first; -1 = unconditional
  /// (only valid for stage 0). Defaults to the previous stage.
  int64_t gate_stage = -2;  // -2 = "previous stage" sentinel
  /// Probability the stage may fire even when its gate did not (funnel
  /// leakage: direct purchases, views from other devices, ...).
  double gate_bypass_prob = 0.0;
  /// Fraction of this stage's driving signal living in a stage-specific
  /// latent subspace (browse interest != purchase intent); see
  /// ExtraBehaviorSpec::subspace_blend.
  double subspace_blend = 0.0;
  bool is_target = false;
};

/// Full generator configuration. Behavior ids: ratings style lays out
/// buckets first then extras; funnel style lays out stages in order.
struct SyntheticConfig {
  enum class Style { kRatings, kFunnel };

  std::string name = "synthetic";
  int64_t num_users = 1000;
  int64_t num_items = 800;
  int64_t latent_dim = 8;
  /// Zipf exponent of item exposure popularity (higher = more skewed).
  double popularity_exponent = 1.0;
  /// Weight of (standardised log-) popularity inside the affinity score.
  double popularity_weight = 0.35;
  /// Observation noise added to the base affinity per (user, item) pair.
  double affinity_noise = 0.25;
  /// Candidate-set size per user is log-uniform in [min, max].
  int64_t min_items_per_user = 8;
  int64_t max_items_per_user = 64;
  /// Every user is guaranteed at least this many target events (so a
  /// leave-one-out split retains train signal).
  int64_t min_target_per_user = 2;
  uint64_t seed = 42;
  Style style = Style::kRatings;
  std::vector<RatingBucketSpec> buckets;
  std::vector<ExtraBehaviorSpec> extras;
  std::vector<FunnelStageSpec> stages;
};

/// Generates a dataset from the config. Deterministic in config.seed.
Dataset GenerateSynthetic(const SyntheticConfig& config);

/// MovieLens-10M-shaped preset: 3 rating buckets {dislike, neutral, like},
/// like is the target; items fewer than users; dense per-user profiles.
/// `scale` multiplies user/item counts (1.0 ~ CPU-minutes benchmarks).
SyntheticConfig MovieLensLike(double scale = 1.0, uint64_t seed = 42);

/// Yelp-shaped preset: {tip, dislike, neutral, like}, like is the target;
/// more items than users; sparser profiles.
SyntheticConfig YelpLike(double scale = 1.0, uint64_t seed = 43);

/// Taobao-shaped preset: funnel {page_view, favorite, cart, purchase},
/// purchase is the target and is rare (hardest dataset, as in the paper).
SyntheticConfig TaobaoLike(double scale = 1.0, uint64_t seed = 44);

}  // namespace data
}  // namespace gnmr

#endif  // GNMR_DATA_SYNTHETIC_H_
