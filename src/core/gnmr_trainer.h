// Training loop for GNMR (Algorithm 1 of the paper): pairwise hinge loss
// over sampled (user, positive, negative) triplets, Adam with exponential
// learning-rate decay, full-graph propagation per step.
//
// An epoch is one in-order loop over the shuffled users: sample a batch
// of (user, positive, negative) triplets, then forward/backward/Adam on
// it. Each batch draws from its own RNG stream derived from (seed, epoch,
// batch index), so what a batch samples depends on nothing else. Sampling
// is under 0.3% of a step (perfbench train_taobao on a shared 4-vCPU
// host traced 0.07-0.1 ms of triplet sampling against 36-54 ms steps), so
// it runs on the training thread.
#ifndef GNMR_CORE_GNMR_TRAINER_H_
#define GNMR_CORE_GNMR_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/gnmr_model.h"
#include "src/graph/negative_sampler.h"
#include "src/nn/optimizer.h"

namespace gnmr {
namespace core {

/// Shard-execution diagnostics for one epoch, snapshotted from the global
/// shard pool (tensor/shard_pool.h). Filled under the default "sharded"
/// backend whenever a kernel was large enough to fan out; all-zero under
/// GNMR_BACKEND=serial, or when every kernel of the epoch ran inline.
/// busy_seconds[w] is worker w's time inside
/// shard task bodies (the dispatching thread's own task is not timed); the
/// spread between min and max is the epoch's load imbalance.
struct ShardEpochStats {
  int64_t workers = 0;
  /// Kernel dispatches that fanned out to the pool.
  uint64_t dispatches = 0;
  /// Shard tasks executed across all workers and the dispatching thread.
  uint64_t tasks = 0;
  /// Per-worker busy seconds during the epoch.
  std::vector<double> busy_seconds;

  double TotalBusySeconds() const {
    double total = 0.0;
    for (double s : busy_seconds) total += s;
    return total;
  }
  double MaxBusySeconds() const {
    double worst = 0.0;
    for (double s : busy_seconds) worst = s > worst ? s : worst;
    return worst;
  }
};

/// Per-epoch training diagnostics.
struct EpochStats {
  int64_t epoch = 0;
  double mean_loss = 0.0;
  double grad_norm = 0.0;
  double seconds = 0.0;
  /// Shard-pool activity attributed to this epoch (see ShardEpochStats).
  ShardEpochStats shard;
  /// Minor page faults during the epoch: the getrusage(RUSAGE_SELF) delta,
  /// so process-wide like `shard`. Near zero once step buffers are reused
  /// from the heap (README "Step memory"); a step that maps fresh memory
  /// shows up here.
  int64_t minor_faults = 0;
};

/// Alias for callers that track training-run rather than epoch
/// granularity; the record is the same.
using TrainStats = EpochStats;

/// Owns a GnmrModel plus its optimiser and sampling state.
class GnmrTrainer {
 public:
  /// `train` is the training split (target behavior included). The trainer
  /// keeps a copy of the per-user positive lists and the negative sampler.
  GnmrTrainer(const GnmrConfig& config, const data::Dataset& train);

  /// Runs one epoch over all users (shuffled, batched). Returns stats.
  EpochStats TrainEpoch();

  /// Runs config.epochs epochs. `on_epoch` (optional) observes progress.
  void Train(const std::function<void(const EpochStats&)>& on_epoch = {});

  /// Refreshes the model's inference cache and returns a scorer.
  std::unique_ptr<eval::Scorer> MakeScorer();

  GnmrModel& model() { return *model_; }
  const GnmrModel& model() const { return *model_; }

 private:
  /// One prepared training batch: aligned (user, positive, negative)
  /// triplet columns, ready for ScorePairs.
  struct TripletBatch {
    std::vector<int64_t> users;
    std::vector<int64_t> pos_items;
    std::vector<int64_t> neg_items;
  };

  /// Independent RNG stream for one batch, derived from (config seed,
  /// epoch, batch index) only.
  util::Rng BatchRng(int64_t epoch, int64_t batch_index) const;

  /// Samples triplets for order[start, end) (reads graph/sampler state,
  /// draws from `rng` only).
  TripletBatch BuildBatch(const std::vector<int64_t>& order, size_t start,
                          size_t end, util::Rng* rng) const;

  /// Forward/backward/Adam on one batch. Updates the running loss sum and
  /// step count; records the gradient norm in `stats`. No-op on an empty
  /// batch.
  void TrainStep(const TripletBatch& batch, double* loss_sum, int64_t* steps,
                 EpochStats* stats);

  GnmrConfig config_;
  std::unique_ptr<GnmrModel> model_;
  std::unique_ptr<graph::NegativeSampler> negative_sampler_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<ad::Var> params_;
  /// Users with at least one target-behavior positive.
  std::vector<int64_t> trainable_users_;
  int64_t target_behavior_ = 0;
  /// Epoch-level RNG (user shuffle); batch sampling uses BatchRng streams.
  util::Rng rng_;
  int64_t epoch_ = 0;
};

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_GNMR_TRAINER_H_
