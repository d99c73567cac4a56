// Autoencoder-based embedding pre-training. The GNMR paper initialises the
// layer-0 node embeddings H^0 from an autoencoder over the multi-behavior
// interaction tensor X (Section III-A, citing AutoRec [9]). This module
// implements that scheme: one autoencoder over user rows of the flattened
// [items x behaviors] matrix, one over item rows of [users x behaviors].
//
// The rows are multi-hot and almost all zeros, so they stay sparse: each
// side's rows are one CSR matrix (MultiHotRows), the encoder is an SpMM of a
// batch's rows against its weight, and the decoder and the reconstruction
// MSE are one tape op (SparseReconstructionMse) that computes the loss and
// its gradients in closed form without forming the dense [batch, width]
// reconstruction. The objective is the dense autoencoder's; its values
// agree with the dense MatMul + MseLoss tape to float tolerance. Every
// dense product runs through the active KernelBackend, so the tables are
// bitwise equal under every bit-exact backend and worker count.
#ifndef GNMR_NN_PRETRAIN_H_
#define GNMR_NN_PRETRAIN_H_

#include <utility>

#include "src/data/dataset.h"
#include "src/graph/interaction_graph.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace gnmr {
namespace nn {

/// Configuration for autoencoder pre-training.
struct PretrainConfig {
  int64_t dim = 16;
  int64_t epochs = 3;
  int64_t batch_size = 64;
  double learning_rate = 5e-3;
};

/// Result of pre-training: initial user and item embedding tables.
struct PretrainedEmbeddings {
  tensor::Tensor user;  // [num_users, dim]
  tensor::Tensor item;  // [num_items, dim]
};

/// One side's multi-hot rows as CSR [count, neighbours * K]: row e holds a
/// 1 at column k * neighbours + j for every neighbour j of entity e under
/// behavior k (users' rows over items when `user_side`, else items' rows
/// over users), columns ascending.
tensor::CsrMatrix MultiHotRows(const graph::MultiBehaviorGraph& graph,
                               bool user_side);

/// The decoder and its reconstruction MSE as one tape op: the mean over
/// [B, D] of (h W2 + b2 - X)^2 for h [B, d], the decoder weight given
/// transposed as w2_t = W2^T [D, d], b2 [1, D] and the batch's rows X
/// [B, D] (`x`, with its transpose `x_transposed`; both must outlive
/// Backward()). No [B, D] tensor is formed. With s = 2 / (B * D):
///   dh    = s * [h (W2 W2^T) + 1 (b2 W2^T) - X W2^T]
///   dW2^T = s * [W2^T (h^T h) + b2^T (sum_rows h) - X^T h]
///   db2   = s * [(sum_rows h) W2 + B * b2 - sum_rows X]
/// The loss expands the square the same way and sums it in double.
ad::Var SparseReconstructionMse(const ad::Var& h, const ad::Var& w2_t,
                                const ad::Var& b2, const tensor::CsrMatrix* x,
                                const tensor::CsrMatrix* x_transposed);

/// Trains the two autoencoders on `graph` and returns the encoder
/// activations as initial embeddings. Deterministic given `rng`.
PretrainedEmbeddings PretrainEmbeddings(const graph::MultiBehaviorGraph& graph,
                                        const PretrainConfig& config,
                                        util::Rng* rng);

/// As above on the graph `dataset` builds.
PretrainedEmbeddings PretrainEmbeddings(const data::Dataset& dataset,
                                        const PretrainConfig& config,
                                        util::Rng* rng);

}  // namespace nn
}  // namespace gnmr

#endif  // GNMR_NN_PRETRAIN_H_
