// train_taobao: GNMR retraining on Taobao-shaped funnel data (four
// behaviors) with the paper's configuration, then the roll-out of the
// retrained snapshot through a hot-swapping RecService.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/gnmr_layers.h"
#include "src/core/gnmr_model.h"
#include "src/core/gnmr_trainer.h"
#include "src/core/model_io.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/graph/negative_sampler.h"
#include "src/nn/optimizer.h"
#include "src/nn/pretrain.h"
#include "src/recorder.h"
#include "src/serve/seen_items.h"
#include "src/tensor/ad_ops.h"
#include "src/tensor/backend.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

using gnmr::core::GnmrConfig;
using gnmr::core::ServingModel;

/// Taobao-like at scale 2: 2200 users x 2600 items. Pre-training grows
/// super-linearly with scale (the dense multi-hot autoencoder), so scale 4
/// would put ~22 s into set-up alone.
constexpr double kScale = 2.0;
/// TrainEpoch calls before evaluation (no early stopping); train_s is
/// the wall time of this many epochs.
constexpr int64_t kEpochs = 3;
/// Further epochs at the end of the run, timed only, so the fastest epoch
/// is taken from two points of the run.
constexpr int64_t kLateEpochs = 2;
constexpr int kSetupReps = 3;
/// Repetitions of each standalone layer call in the traced run.
constexpr int kLayerReps = 20;

/// Roll-out traffic: Zipf over the trained users, who all fit in the
/// default cache, so steady traffic is cache hits and each swap empties
/// the cache of every hot user at once. Its rungs step up to ~200k/s of
/// cache hits.
TrafficSpec RolloutTraffic() {
  TrafficSpec t;
  t.zipf = true;
  t.named_qps = 6000;
  t.ladder = Ladder(50000, 1.05, 64);
  t.p99_limit_us = 2500;
  return t;
}

/// Saves both snapshots, loads them back (checking the bitwise round
/// trip) and starts a default RecService on generation 0.
std::unique_ptr<gnmr::serve::RecService> Deploy(
    const ServingModel snapshots[2], const gnmr::data::Dataset& train,
    const RunOptions& options, Report* report, Deployment* deployment) {
  deployment->seen = std::make_shared<const gnmr::serve::SeenItems>(
      gnmr::serve::SeenItems::FromDataset(train));
  for (int g = 0; g < 2; ++g) {
    deployment->path[g] =
        options.work_dir + "/trained" + std::to_string(g) + ".gnmr";
    {
      Span span("io.save");
      const gnmr::util::Status s =
          gnmr::core::SaveServingModelV3(snapshots[g], deployment->path[g]);
      report->Check(s.ok(), "SaveServingModelV3: " + s.ToString());
    }
    gnmr::util::Result<ServingModel> back = [&] {
      Span span("io.load");
      return gnmr::core::LoadServingModel(deployment->path[g]);
    }();
    report->Check(back.ok() && SameEmbeddings(back.value(), snapshots[g]),
                  "trained snapshot does not round-trip bitwise");
    if (!back.ok()) return nullptr;
    deployment->model[g] =
        std::make_shared<const ServingModel>(std::move(back).value());
  }
  return std::make_unique<gnmr::serve::RecService>(deployment->model[0],
                                                   deployment->seen);
}

struct Triplets {
  std::vector<int64_t> users, pos, neg;
};

/// Traced run: the training step rebuilt from public calls, each stage
/// spanned, plus standalone calls of one layer's SpMMs and eta/xi/psi.
void TraceTraining(const GnmrConfig& cfg, const gnmr::bench::ExperimentEnv& env,
                   const RunOptions& options, Report* report) {
  const gnmr::data::Dataset& train = env.split.train;
  {
    gnmr::nn::PretrainConfig pcfg;
    pcfg.dim = cfg.embedding_dim;
    pcfg.epochs = cfg.pretrain_epochs;
    gnmr::util::Rng rng(cfg.seed);
    Span span("nn.pretrain");
    gnmr::nn::PretrainEmbeddings(train, pcfg, &rng);
  }
  report->Add("nn.pretrain_s", SpanDurationsNs("nn.pretrain").front() / 1e9,
              "s");

  // Same architecture without the pre-train pass (timed above): a step
  // costs the same whatever the initial values.
  GnmrConfig model_cfg = cfg;
  model_cfg.use_pretrain = false;
  gnmr::core::GnmrModel model(model_cfg, train);
  const std::vector<gnmr::ad::Var> params = model.Parameters();
  gnmr::nn::Adam adam(cfg.learning_rate, 0.9, 0.999, 1e-8, cfg.weight_decay);
  const int64_t target = train.target_behavior;
  gnmr::graph::NegativeSampler sampler(&model.graph(), target);
  std::vector<int64_t> trainable;
  for (int64_t u = 0; u < model.num_users(); ++u) {
    if (model.graph().UserDegree(u, target) > 0 && sampler.NumEligible(u) > 0) {
      trainable.push_back(u);
    }
  }
  gnmr::util::Rng rng(cfg.seed ^ 0x7ace5ULL);
  int64_t steps_per_epoch = 0;

  auto run_epoch = [&](bool record) {
    SetRecording(record);
    Span epoch("core.epoch");
    std::vector<int64_t> order = trainable;
    rng.Shuffle(&order);
    int64_t steps = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(cfg.batch_users)) {
      const size_t end = std::min(order.size(),
                                  start + static_cast<size_t>(cfg.batch_users));
      Triplets batch;
      {
        Span span("graph.batch");
        for (size_t i = start; i < end; ++i) {
          const std::vector<int64_t> positives =
              model.graph().ItemsOf(order[i], target);
          for (int64_t s = 0; s < cfg.positives_per_user; ++s) {
            const int64_t pos = positives[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(positives.size()) - 1))];
            for (int64_t n = 0; n < cfg.negatives_per_positive; ++n) {
              batch.users.push_back(order[i]);
              batch.pos.push_back(pos);
              batch.neg.push_back(sampler.SampleOne(order[i], &rng));
            }
          }
        }
      }
      Span step("core.step");
      std::vector<gnmr::ad::Var> layers;
      {
        Span span("core.propagate");
        layers = model.Propagate();
      }
      gnmr::ad::Var loss;
      {
        Span span("core.loss");
        gnmr::ad::Var pos = model.ScorePairs(layers, batch.users, batch.pos);
        gnmr::ad::Var neg = model.ScorePairs(layers, batch.users, batch.neg);
        loss = gnmr::ad::PairwiseHingeLoss(pos, neg, cfg.margin);
      }
      {
        Span span("ad.backward");
        gnmr::ad::Backward(loss);
      }
      {
        Span span("nn.adam");
        if (cfg.grad_clip > 0.0) gnmr::nn::ClipGradNorm(params, cfg.grad_clip);
        adam.Step(params);
      }
      ++steps;
    }
    adam.DecayLearningRate(cfg.lr_decay);
    steps_per_epoch = steps;
    return static_cast<double>(epoch.ElapsedNs());
  };

  ServingModel snapshots[2];
  const double on_first = run_epoch(true);
  model.RefreshInferenceCache();
  snapshots[0] = gnmr::core::ExportServingModel(model);
  const double off = run_epoch(false);
  const double on_second = run_epoch(true);
  model.RefreshInferenceCache();
  snapshots[1] = gnmr::core::ExportServingModel(model);

  auto median_ms = [](const char* name) {
    return Median(SpanDurationsNs(name)) / 1e6;
  };
  std::vector<double> step_ms = SpanDurationsNs("core.step");
  for (double& v : step_ms) v /= 1e6;
  report->Add("core.epoch_s", Median(SpanDurationsNs("core.epoch")) / 1e9, "s");
  report->Add("core.step_ms.p50", Quantile(step_ms, 0.5), "ms");
  report->Add("core.step_ms.p90", Quantile(step_ms, 0.9), "ms");
  report->Add("core.propagate_ms", median_ms("core.propagate"), "ms");
  report->Add("core.loss_ms", median_ms("core.loss"), "ms");
  report->Add("ad.backward_ms", median_ms("ad.backward"), "ms");
  report->Add("nn.adam_ms", median_ms("nn.adam"), "ms");
  report->Add("graph.batch_ms", median_ms("graph.batch"), "ms");
  report->Add("core.steps", static_cast<double>(steps_per_epoch), "count");
  report->Add("trace.overhead_pct",
              100.0 * ((on_first + on_second) / 2.0 - off) / off, "%");

  // One layer's stages in isolation: the K per-behavior SpMMs over H^0,
  // then eta on each summary, xi across them, psi fusing them.
  SetRecording(true);
  const gnmr::ad::Var h0 = model.Propagate().front();
  const int64_t num_k = model.graph().num_behaviors();
  int64_t nnz = 0;
  for (int64_t k = 0; k < num_k; ++k) {
    nnz += model.graph().UnifiedAdjacency(k, cfg.neighbor_norm)->forward.nnz();
  }
  gnmr::util::Rng layer_rng(cfg.seed ^ 0x1a7e5ULL);
  gnmr::core::TypeBehaviorEmbedding eta(cfg.embedding_dim, cfg.num_channels,
                                        &layer_rng);
  gnmr::core::BehaviorRelationAttention xi(cfg.embedding_dim, cfg.num_heads,
                                           &layer_rng);
  gnmr::core::BehaviorGate psi(
      cfg.embedding_dim,
      cfg.gate_hidden_dim > 0 ? cfg.gate_hidden_dim : cfg.embedding_dim,
      &layer_rng);
  for (int rep = 0; rep < kLayerReps; ++rep) {
    std::vector<gnmr::ad::Var> summaries, typed, related;
    {
      Span span("tensor.spmm");
      for (int64_t k = 0; k < num_k; ++k) {
        const gnmr::graph::SparseOp* adj =
            model.graph().UnifiedAdjacency(k, cfg.neighbor_norm);
        summaries.push_back(gnmr::ad::Spmm(&adj->forward, &adj->backward, h0));
      }
    }
    {
      Span span("core.eta");
      for (const gnmr::ad::Var& s : summaries) typed.push_back(eta.Forward(s));
    }
    {
      Span span("core.xi");
      related = xi.Forward(typed);
    }
    {
      Span span("core.psi");
      psi.Forward(related);
    }
  }
  report->Add("tensor.spmm_ms", median_ms("tensor.spmm"), "ms");
  report->Add("tensor.spmm_nnz", static_cast<double>(nnz), "count");
  report->Add("core.eta_ms", median_ms("core.eta"), "ms");
  report->Add("core.xi_ms", median_ms("core.xi"), "ms");
  report->Add("core.psi_ms", median_ms("core.psi"), "ms");

  Deployment deployment;
  std::unique_ptr<gnmr::serve::RecService> service =
      Deploy(snapshots, train, options, report, &deployment);
  if (service == nullptr) return;
  report->Add("io.save_ms", median_ms("io.save"), "ms");
  report->Add("io.load_ms", median_ms("io.load"), "ms");
  // trace.overhead_pct stays the training loop's, measured above.
  TraceServing(RolloutTraffic(), deployment, service.get(), options,
               /*report_overhead=*/false, report);
}

}  // namespace

void RunTrainTaobao(const RunOptions& options, Report* report) {
  Progress("backend: %s", gnmr::tensor::GetBackend().name());
  gnmr::bench::RunSettings settings;
  settings.seed = options.seed;
  settings.gnmr_epochs = kEpochs;
  const GnmrConfig cfg = gnmr::bench::MakeGnmrConfig(settings);
  const gnmr::bench::ExperimentEnv env = gnmr::bench::BuildEnv(
      gnmr::data::TaobaoLike(kScale, options.seed), 99,
      options.seed ^ 0xe7a1ULL);
  Progress("taobao-like: %lld users x %lld items, %zu events, %lld "
           "behaviors, %zu test users",
              static_cast<long long>(env.split.train.num_users),
              static_cast<long long>(env.split.train.num_items),
              env.split.train.interactions.size(),
              static_cast<long long>(env.split.train.num_behaviors()),
              env.candidates.size());

  if (options.trace) {
    TraceTraining(cfg, env, options, report);
    return;
  }

  // Set-up: graph build plus autoencoder pre-train, inside the trainer's
  // constructor. The first trainer is the one trained; two more at the
  // end of the run are timed too, and setup_s is the median of the three.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const int64_t t = NowNs();
    auto trainer =
        std::make_unique<gnmr::core::GnmrTrainer>(cfg, env.split.train);
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
    return trainer;
  };
  std::unique_ptr<gnmr::core::GnmrTrainer> trainer = set_up();

  // Training: kEpochs TrainEpoch calls, timed one by one. The snapshots
  // of the last two are the two generations the roll-out swaps between.
  ServingModel snapshots[2];
  std::vector<double> epoch_s;
  auto train_epoch = [&] {
    const int64_t t = NowNs();
    const gnmr::core::EpochStats stats = trainer->TrainEpoch();
    epoch_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
    Progress("epoch %zu: loss %.6f (%.3f s)", epoch_s.size() - 1,
             stats.mean_loss, epoch_s.back());
  };
  for (int64_t e = 0; e < kEpochs; ++e) {
    train_epoch();
    if (e >= kEpochs - 2) {
      trainer->model().RefreshInferenceCache();
      snapshots[e - (kEpochs - 2)] =
          gnmr::core::ExportServingModel(trainer->model());
    }
  }

  std::unique_ptr<gnmr::eval::Scorer> scorer = trainer->MakeScorer();
  const gnmr::eval::RankingMetrics metrics =
      gnmr::eval::EvaluateRanking(scorer.get(), env.candidates, {10});
  report->Add("hr10", metrics.hr.at(10), "ratio");
  report->Add("ndcg10", metrics.ndcg.at(10), "ratio");

  Deployment deployment;
  std::unique_ptr<gnmr::serve::RecService> service =
      Deploy(snapshots, env.split.train, options, report, &deployment);
  if (service == nullptr) return;
  // The served snapshot ranks exactly as the trainer does.
  std::unique_ptr<gnmr::eval::Scorer> served =
      gnmr::core::MakeSharedScorer(deployment.model[1]);
  const gnmr::eval::RankingMetrics served_metrics =
      gnmr::eval::EvaluateRanking(served.get(), env.candidates, {10});
  report->Check(served_metrics.hr.at(10) == metrics.hr.at(10) &&
                    served_metrics.ndcg.at(10) == metrics.ndcg.at(10),
                "served snapshot ranks differently from the trainer");
  MeasureServing(RolloutTraffic(), deployment, service.get(), options, report);

  service.reset();
  for (int64_t e = 0; e < kLateEpochs; ++e) train_epoch();
  // train_s: kEpochs times the fastest epoch (an epoch's work does not
  // depend on the parameter values).
  report->Add("train_s", static_cast<double>(kEpochs) * Fastest(epoch_s),
              "s");
  trainer.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) set_up();
  report->Add("setup_s", Median(setup_s), "s");
  Progress("set-up: median %.3f s of %zu", Median(setup_s), setup_s.size());
}

}  // namespace perfbench
