// Hyperparameters and ablation switches of the GNMR model.
#ifndef GNMR_CORE_GNMR_CONFIG_H_
#define GNMR_CORE_GNMR_CONFIG_H_

#include <cstdint>

#include "src/graph/interaction_graph.h"

namespace gnmr {
namespace core {

/// Configuration mirroring Section IV-A4 of the paper where stated
/// (d = 16, C = 8 memory channels, Adam lr 1e-3, decay 0.96), with
/// documented choices elsewhere.
struct GnmrConfig {
  // ---- Architecture -------------------------------------------------------
  /// Embedding dimension d.
  int64_t embedding_dim = 16;
  /// C: channels of the gated multi-dimensional projection in eta (Eq. 2);
  /// the paper's "latent dimensions in our memory neural module".
  int64_t num_channels = 8;
  /// S: attention heads of the cross-behavior recalibration xi (Eq. 3).
  /// Must divide embedding_dim.
  int64_t num_heads = 2;
  /// L: number of propagation layers (Fig. 3 sweeps 0..3; 2 is default).
  int64_t num_layers = 2;
  /// Neighbor aggregation normalisation. Eq. 2 uses a plain sum (kSum);
  /// symmetric sqrt-degree is the default here for training stability and
  /// accuracy at high degree — README.md ("Model and deviations from the
  /// paper") lists the deviation, and kSum / kMean are tested and
  /// supported.
  graph::NeighborNorm neighbor_norm = graph::NeighborNorm::kSqrtDegree;

  /// Multi-order matching readout (Algorithm 1 line 16). kSumLayers scores
  /// with dot(sum_l H^l_u, sum_l H^l_i), which includes cross-order terms
  /// (e.g. H^1_u . H^0_i — the direct auxiliary-edge signal); kConcat
  /// scores with the concatenated per-layer embeddings (NGCF-style, no
  /// cross terms).
  enum class Readout { kSumLayers, kConcat };
  Readout readout = Readout::kConcat;
  /// Hidden width d' of the gate MLP in psi (Eq. 5); 0 = embedding_dim.
  int64_t gate_hidden_dim = 0;

  // ---- Ablation switches (Figure 2) ---------------------------------------
  /// false => GNMR-be: drop the type-specific gated projection eta.
  bool use_type_embedding = true;
  /// false => GNMR-ma: drop the cross-behavior relation attention xi.
  bool use_relation_attention = true;
  /// false => replace the softmax gate psi with a uniform average
  /// (extra ablation beyond the paper).
  bool use_behavior_gate = true;

  // ---- Initialisation ------------------------------------------------------
  /// Autoencoder pre-training of H^0 (Section III-A). false = random init.
  bool use_pretrain = true;
  int64_t pretrain_epochs = 2;
  /// Stddev of the random H^0 init (and scale of the pre-trained H^0).
  /// Larger values shorten the flat-hinge warm-up of deep multiplicative
  /// scoring at the cost of stability; 0.3 works well at bench scales.
  float embedding_init_std = 0.1f;

  // ---- Optimisation (Eq. 7 + Section IV-A4) -------------------------------
  int64_t epochs = 30;
  double learning_rate = 1e-3;
  /// Exponential LR decay applied once per epoch.
  double lr_decay = 0.96;
  /// lambda of Eq. 7, applied as decoupled weight decay.
  double weight_decay = 1e-5;
  /// Hinge margin of Eq. 7.
  float margin = 1.0f;
  /// Users per training step (paper: 32; larger is faster on CPU because
  /// every step pays one full-graph propagation).
  int64_t batch_users = 128;
  /// S of Algorithm 1: positives sampled per user per epoch.
  int64_t positives_per_user = 1;
  /// Negatives sampled per positive.
  int64_t negatives_per_positive = 1;
  /// Global gradient-norm clip; 0 disables.
  double grad_clip = 5.0;
  uint64_t seed = 123;
  /// Log per-epoch loss at INFO level.
  bool verbose = false;
};

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_GNMR_CONFIG_H_
