// Determinism regression tests of the trainer: batch sampling comes from
// per-batch seeded RNG streams, so a fixed seed must reproduce its loss
// trajectory and trained model bit-for-bit, run to run and under every
// kernel backend. One memory test guards the reuse of step buffers across
// epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/gnmr_config.h"
#include "src/core/gnmr_trainer.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/tensor/backend.h"
#include "src/util/sanitizer.h"

namespace gnmr {
namespace core {
namespace {

GnmrConfig PipelineTestConfig() {
  GnmrConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_channels = 4;
  cfg.num_layers = 1;
  cfg.use_pretrain = false;
  cfg.epochs = 4;
  // Small batches so every epoch runs several steps.
  cfg.batch_users = 16;
  cfg.positives_per_user = 2;
  cfg.negatives_per_positive = 2;
  return cfg;
}

data::Dataset TestData() {
  return data::GenerateSynthetic(data::MovieLensLike(0.2, 7));
}

std::vector<double> LossCurve(GnmrTrainer* trainer, int64_t epochs) {
  std::vector<double> losses;
  for (int64_t e = 0; e < epochs; ++e) {
    losses.push_back(trainer->TrainEpoch().mean_loss);
  }
  return losses;
}

// Defined first so it runs before the other cases grow this process's
// heap. Each step frees and re-allocates the same multi-MB tensors; once
// the first Backward has pinned glibc's heap policy (README "Step
// memory") a steady epoch reuses them from the heap instead of mapping
// and zero-faulting fresh pages.
TEST(TrainerPipelineTest, SteadyEpochReusesStepBuffers) {
#if !defined(__GLIBC__) || GNMR_SANITIZER_MALLOC
  GTEST_SKIP() << "the fault profile is glibc malloc's";
#else
  data::Dataset train = data::GenerateSynthetic(data::TaobaoLike(0.5, 11));
  GnmrConfig cfg;
  cfg.use_pretrain = false;
  cfg.epochs = 3;
  GnmrTrainer trainer(cfg, train);
  const EpochStats first = trainer.TrainEpoch();
  trainer.TrainEpoch();
  const EpochStats steady = trainer.TrainEpoch();
  EXPECT_GT(first.minor_faults, 0);
  EXPECT_LT(steady.minor_faults * 10, first.minor_faults)
      << "first epoch " << first.minor_faults << " faults, third "
      << steady.minor_faults;
#endif
}

TEST(TrainerPipelineTest, SameSeedReproducesRunExactly) {
  data::Dataset train = TestData();
  GnmrConfig cfg = PipelineTestConfig();
  GnmrTrainer a(cfg, train), b(cfg, train);
  std::vector<double> la = LossCurve(&a, cfg.epochs);
  std::vector<double> lb = LossCurve(&b, cfg.epochs);
  EXPECT_EQ(la, lb);
  for (double loss : la) EXPECT_GT(loss, 0.0);

  // The trained models are interchangeable too, not just the summaries.
  a.model().RefreshInferenceCache();
  b.model().RefreshInferenceCache();
  for (int64_t u = 0; u < 5; ++u) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(a.model().Score(u, j), b.model().Score(u, j));
    }
  }
}

TEST(TrainerPipelineTest, DifferentSeedsDiverge) {
  data::Dataset train = TestData();
  GnmrConfig cfg = PipelineTestConfig();
  GnmrConfig other = cfg;
  other.seed = cfg.seed + 1;
  GnmrTrainer a(cfg, train), b(other, train);
  std::vector<double> la = LossCurve(&a, cfg.epochs);
  std::vector<double> lb = LossCurve(&b, cfg.epochs);
  EXPECT_NE(la, lb);
}

TEST(TrainerPipelineTest, SingleBatchEpochStillTrains) {
  // batch_users above the user count degenerates to one batch per epoch.
  data::Dataset train = TestData();
  GnmrConfig cfg = PipelineTestConfig();
  cfg.batch_users = 1 << 20;
  GnmrTrainer trainer(cfg, train);
  EpochStats stats = trainer.TrainEpoch();
  EXPECT_GT(stats.mean_loss, 0.0);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

TEST(TrainerPipelineTest, SameSeedReproducesRunPerKernelBackend) {
  // The trainer contract holds under every registered kernel backend,
  // whatever executes the tensor kernels underneath.
  data::Dataset train = TestData();
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    GnmrConfig cfg = PipelineTestConfig();
    cfg.epochs = 2;
    GnmrTrainer a(cfg, train), b(cfg, train);
    EXPECT_EQ(LossCurve(&a, cfg.epochs), LossCurve(&b, cfg.epochs))
        << backend->name();
  }
}

}  // namespace
}  // namespace core
}  // namespace gnmr
