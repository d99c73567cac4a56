// Deterministic Lloyd's k-means over the rows of a dense matrix.
//
// This is the clustering primitive underneath the IVF retrieval index
// (core::BuildIvfIndex): item embedding rows are partitioned into nlist
// clusters offline, and the serving path probes only the clusters nearest
// a user's query vector. Both hot steps run through the active
// tensor::KernelBackend —
//
//   assign:  row-to-centroid distances via one MatMul (rows x centroids^T)
//            plus RowDot centroid norms; argmin per row with ties broken by
//            the LOWEST centroid id,
//   update:  per-cluster sums via ScatterAddRows keyed by the assignments,
//
// so clustering inherits serial / sharded execution for free and —
// because every backend accumulates each output element in the reference
// order — produces bit-identical centroids and assignments on every
// backend at any worker count.
//
// Determinism: initial centroids are `k` distinct input rows drawn by a
// fixed-seed util::Rng (uniformly, or by k-means++ D^2 sampling when
// KMeansOptions::plusplus_init is set) and sorted ascending by row index,
// empty clusters
// deterministically keep their previous centroid, and iteration stops on
// the first assign pass that changes nothing (or at max_iters). Same data,
// same options -> the same result, run to run and backend to backend.
#ifndef GNMR_TENSOR_KMEANS_H_
#define GNMR_TENSOR_KMEANS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace gnmr {
namespace tensor {

struct KMeansOptions {
  /// Upper bound on Lloyd iterations (assign + update passes).
  int64_t max_iters = 25;
  /// Seed of the initial-centroid draw; the only stochastic step.
  uint64_t seed = 1021;
  /// k-means++ (D^2) seeding instead of the uniform draw: the first
  /// center is uniform, each next is drawn with probability proportional
  /// to the row's squared distance to its nearest chosen center (Arthur &
  /// Vassilvitskii 2007) — spread-out seeds that cut Lloyd iterations and
  /// within-cluster variance on skewed catalogues. Same determinism
  /// contract as the default: distances flow through the backend's
  /// QueryDot/RowDot kernels (bit-identical everywhere) and the draws
  /// through the fixed-seed Rng, so same data + same options -> the same
  /// seeds on every backend. Off by default — flipping it changes every
  /// persisted IVF index built from the same seed.
  bool plusplus_init = false;
};

struct KMeansResult {
  /// [k, d] cluster centers.
  Tensor centroids;
  /// assignments[i] in [0, k): the centroid row i belongs to. Ties in
  /// distance go to the lowest centroid id.
  std::vector<int64_t> assignments;
  /// sizes[c] = number of rows assigned to centroid c (sums to n).
  std::vector<int64_t> sizes;
  /// Assign passes executed (>= 1).
  int64_t iterations = 0;
  /// True when the final assign pass changed no assignment (fixed point
  /// reached before max_iters ran out).
  bool converged = false;
};

/// Clusters the `n` rows of `rows` ([n, d] row-major) into `k` groups by
/// squared Euclidean distance. Requires 1 <= k <= n and d >= 1.
KMeansResult KMeansRows(const float* rows, int64_t n, int64_t d, int64_t k,
                        const KMeansOptions& options = KMeansOptions());

/// Convenience overload over a rank-2 tensor.
KMeansResult KMeansRows(const Tensor& rows, int64_t k,
                        const KMeansOptions& options = KMeansOptions());

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_KMEANS_H_
