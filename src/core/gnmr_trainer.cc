#include "src/core/gnmr_trainer.h"

#include <sys/resource.h>

#include <algorithm>

#include "src/obs/trace.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/shard_pool.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace gnmr {
namespace core {

namespace {

/// Salt separating the per-batch sampling streams from every other
/// consumer of the config seed (model init, epoch shuffle).
constexpr uint64_t kBatchStreamSalt = 0x51ed270b9f8f2a4bULL;

/// Pool activity between two snapshots, as per-worker busy seconds. The
/// counters are process-global, so concurrent pool users (e.g. a serving
/// thread) are attributed too — epoch stats are diagnostics, not an exact
/// ledger. A worker-count change mid-epoch means the pool was rebuilt and
/// its counters restarted from zero: the delta then reports the NEW
/// pool's full activity, one entry per new-pool worker.
ShardEpochStats ShardDelta(const tensor::ShardPoolStats& before,
                           const tensor::ShardPoolStats& after) {
  // Saturating deltas: if the pool was rebuilt (SetShardWorkers) between
  // the snapshots, its counters restarted from zero — attribute only the
  // new pool's activity instead of wrapping.
  auto delta_of = [](uint64_t b, uint64_t a) { return a >= b ? a - b : a; };
  ShardEpochStats delta;
  delta.workers = after.workers;
  delta.dispatches = delta_of(before.dispatches, after.dispatches);
  delta.tasks = delta_of(before.tasks, after.tasks);
  bool same_pool = before.worker_busy_ns.size() == after.worker_busy_ns.size();
  delta.busy_seconds.reserve(after.worker_busy_ns.size());
  for (size_t w = 0; w < after.worker_busy_ns.size(); ++w) {
    uint64_t b = same_pool ? before.worker_busy_ns[w] : 0;
    delta.busy_seconds.push_back(
        static_cast<double>(delta_of(b, after.worker_busy_ns[w])) * 1e-9);
  }
  return delta;
}

/// The process's minor page faults so far.
int64_t MinorFaults() {
  rusage usage{};
  GNMR_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<int64_t>(usage.ru_minflt);
}

}  // namespace

GnmrTrainer::GnmrTrainer(const GnmrConfig& config, const data::Dataset& train)
    : config_(config),
      target_behavior_(train.target_behavior),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
  model_ = std::make_unique<GnmrModel>(config, train);
  negative_sampler_ = std::make_unique<graph::NegativeSampler>(
      &model_->graph(), train.target_behavior);
  optimizer_ = std::make_unique<nn::Adam>(config.learning_rate, 0.9, 0.999,
                                          1e-8, config.weight_decay);
  params_ = model_->Parameters();
  for (int64_t u = 0; u < model_->num_users(); ++u) {
    if (model_->graph().UserDegree(u, train.target_behavior) > 0 &&
        negative_sampler_->NumEligible(u) > 0) {
      trainable_users_.push_back(u);
    }
  }
  GNMR_CHECK(!trainable_users_.empty())
      << "no users with target-behavior positives";
}

util::Rng GnmrTrainer::BatchRng(int64_t epoch, int64_t batch_index) const {
  return util::Rng(config_.seed ^ kBatchStreamSalt,
                   (static_cast<uint64_t>(epoch) << 32) |
                       static_cast<uint64_t>(batch_index));
}

GnmrTrainer::TripletBatch GnmrTrainer::BuildBatch(
    const std::vector<int64_t>& order, size_t start, size_t end,
    util::Rng* rng) const {
  GNMR_TRACE_SPAN("train.build_batch");
  TripletBatch batch;
  size_t samples_per_user = static_cast<size_t>(config_.positives_per_user *
                                                config_.negatives_per_positive);
  batch.users.reserve((end - start) * samples_per_user);
  batch.pos_items.reserve((end - start) * samples_per_user);
  batch.neg_items.reserve((end - start) * samples_per_user);
  for (size_t i = start; i < end; ++i) {
    int64_t u = order[i];
    std::vector<int64_t> positives =
        model_->graph().ItemsOf(u, target_behavior_);
    if (positives.empty()) continue;
    for (int64_t s = 0; s < config_.positives_per_user; ++s) {
      int64_t pos = positives[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(positives.size()) - 1))];
      for (int64_t n = 0; n < config_.negatives_per_positive; ++n) {
        batch.users.push_back(u);
        batch.pos_items.push_back(pos);
        batch.neg_items.push_back(negative_sampler_->SampleOne(u, rng));
      }
    }
  }
  return batch;
}

void GnmrTrainer::TrainStep(const TripletBatch& batch, double* loss_sum,
                            int64_t* steps, EpochStats* stats) {
  GNMR_TRACE_SPAN("train.step");
  if (batch.users.empty()) return;
  std::vector<ad::Var> layers;
  {
    GNMR_TRACE_SPAN("train.propagate");
    layers = model_->Propagate();
  }
  ad::Var pos_scores = model_->ScorePairs(layers, batch.users,
                                          batch.pos_items);
  ad::Var neg_scores = model_->ScorePairs(layers, batch.users,
                                          batch.neg_items);
  ad::Var loss =
      ad::PairwiseHingeLoss(pos_scores, neg_scores, config_.margin);
  GNMR_CHECK(!loss.value().HasNonFinite()) << "loss diverged (NaN/inf)";
  *loss_sum += static_cast<double>(loss.value().at(0));
  ++*steps;

  {
    GNMR_TRACE_SPAN("train.backward");
    ad::Backward(loss);
  }
  GNMR_TRACE_SPAN("train.adam");
  if (config_.grad_clip > 0.0) {
    nn::ClipGradNorm(params_, config_.grad_clip);
  }
  stats->grad_norm = nn::GlobalGradNorm(params_);
  optimizer_->Step(params_);
}

EpochStats GnmrTrainer::TrainEpoch() {
  GNMR_TRACE_SPAN("train.epoch");
  util::Stopwatch timer;
  EpochStats stats;
  stats.epoch = epoch_;
  // Per-shard attribution: under the "sharded" backend every propagation
  // pass (each behavior's SpMM plus the dense layer kernels) fans out over
  // the shard pool; the delta of these snapshots is this epoch's per-worker
  // busy time. Reading the stats never instantiates the pool, so the other
  // backends pay nothing.
  tensor::ShardPoolStats shard_before = tensor::GlobalShardPoolStats();
  const int64_t faults_before = MinorFaults();

  std::vector<int64_t> order = trainable_users_;
  rng_.Shuffle(&order);

  double loss_sum = 0.0;
  int64_t steps = 0;
  const size_t batch_users = static_cast<size_t>(config_.batch_users);
  for (size_t start = 0, b = 0; start < order.size();
       start += batch_users, ++b) {
    util::Rng batch_rng = BatchRng(epoch_, static_cast<int64_t>(b));
    TripletBatch batch = BuildBatch(
        order, start, std::min(order.size(), start + batch_users), &batch_rng);
    TrainStep(batch, &loss_sum, &steps, &stats);
  }

  optimizer_->DecayLearningRate(config_.lr_decay);
  stats.mean_loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0;
  stats.seconds = timer.ElapsedSeconds();
  stats.shard = ShardDelta(shard_before, tensor::GlobalShardPoolStats());
  stats.minor_faults = MinorFaults() - faults_before;
  if (config_.verbose) {
    GNMR_LOG(INFO) << "epoch " << epoch_ << " loss=" << stats.mean_loss
                   << " grad=" << stats.grad_norm << " ("
                   << stats.seconds << "s, " << stats.minor_faults
                   << " minor faults)";
    if (stats.shard.dispatches > 0) {
      GNMR_LOG(INFO) << "  shard pool: " << stats.shard.workers
                     << " workers, " << stats.shard.dispatches
                     << " dispatches, " << stats.shard.tasks
                     << " tasks, busy max=" << stats.shard.MaxBusySeconds()
                     << "s total=" << stats.shard.TotalBusySeconds() << "s";
    }
  }
  ++epoch_;
  return stats;
}

void GnmrTrainer::Train(
    const std::function<void(const EpochStats&)>& on_epoch) {
  for (int64_t e = 0; e < config_.epochs; ++e) {
    EpochStats stats = TrainEpoch();
    if (on_epoch) on_epoch(stats);
  }
}

std::unique_ptr<eval::Scorer> GnmrTrainer::MakeScorer() {
  model_->RefreshInferenceCache();
  return model_->MakeScorer();
}

}  // namespace core
}  // namespace gnmr
