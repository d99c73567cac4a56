// The multi-behavior user-item interaction graph G = {U, V, E} of the GNMR
// paper (Section III). Users and items form a bipartite graph with one edge
// set per behavior type k; message passing operates on a unified node space
// [users; items] so a single SpMM per behavior propagates both directions.
#ifndef GNMR_GRAPH_INTERACTION_GRAPH_H_
#define GNMR_GRAPH_INTERACTION_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/tensor/sparse.h"

namespace gnmr {
namespace graph {

/// One observed user-item interaction event under a behavior type.
/// `timestamp` is a per-user logical clock (generation / log order); it is
/// consumed by sequence-based baselines (DIPN) and leave-latest-out splits.
struct Interaction {
  int64_t user = 0;
  int64_t item = 0;
  int64_t behavior = 0;
  int64_t timestamp = 0;
};

/// Neighbor normalisation applied to adjacency values before SpMM.
enum class NeighborNorm {
  /// Plain sum over neighbors (Eq. 2 of the paper, faithful default).
  kSum,
  /// Mean over neighbors (divide by out-degree).
  kMean,
  /// Symmetric 1/sqrt(deg_i * deg_j) (GCN-style, used by the NGCF baseline).
  kSqrtDegree,
};

/// A sparse operator together with its transpose, ready for ad::Spmm.
struct SparseOp {
  tensor::CsrMatrix forward;
  tensor::CsrMatrix backward;  // transpose of `forward`
};

/// Immutable multi-behavior bipartite interaction graph.
///
/// Node id convention for unified adjacencies: users occupy [0, num_users),
/// items occupy [num_users, num_users + num_items).
class MultiBehaviorGraph {
 public:
  /// Builds the graph from interaction events. Duplicate (user, item,
  /// behavior) events collapse into a single edge.
  MultiBehaviorGraph(int64_t num_users, int64_t num_items,
                     int64_t num_behaviors,
                     const std::vector<Interaction>& interactions);

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_behaviors() const { return num_behaviors_; }
  int64_t num_nodes() const { return num_users_ + num_items_; }
  /// Distinct edges under behavior k.
  int64_t NumEdges(int64_t behavior) const;
  /// Distinct edges across all behaviors (union, multi-edges collapsed).
  int64_t NumEdgesTotal() const;

  /// User->item CSR of behavior k ([num_users, num_items], values 1).
  const tensor::CsrMatrix& UserItem(int64_t behavior) const;
  /// Item->user CSR of behavior k (transpose of UserItem).
  const tensor::CsrMatrix& ItemUser(int64_t behavior) const;

  /// Sorted distinct items user `u` interacted with under behavior k.
  std::vector<int64_t> ItemsOf(int64_t user, int64_t behavior) const;
  /// Sorted distinct users who interacted with item `v` under behavior k.
  std::vector<int64_t> UsersOf(int64_t item, int64_t behavior) const;
  /// True if the (user, item) edge exists under behavior k. O(log deg).
  bool HasEdge(int64_t user, int64_t item, int64_t behavior) const;

  /// Degree of user `u` under behavior k.
  int64_t UserDegree(int64_t user, int64_t behavior) const;
  /// Degree of item `v` under behavior k.
  int64_t ItemDegree(int64_t item, int64_t behavior) const;

  /// Unified [N,N] adjacency of behavior k over nodes [users; items] with
  /// the requested normalisation, plus its transpose. Cached after first
  /// use; the returned pointer lives as long as this graph.
  const SparseOp* UnifiedAdjacency(int64_t behavior, NeighborNorm norm) const;

  /// UnifiedAdjacency of every behavior, in behavior order.
  std::vector<const SparseOp*> UnifiedAdjacencies(NeighborNorm norm) const;

  /// Union of all behaviors' edges as one unified adjacency (baselines that
  /// ignore behavior types, e.g. NGCF). Cached.
  const SparseOp* MergedAdjacency(NeighborNorm norm) const;

  /// Structural validation of all CSR blocks. Aborts on violation.
  void CheckInvariants() const;

 private:
  tensor::CsrMatrix BuildUnified(int64_t behavior, NeighborNorm norm) const;

  int64_t num_users_;
  int64_t num_items_;
  int64_t num_behaviors_;
  std::vector<tensor::CsrMatrix> user_item_;  // per behavior
  std::vector<tensor::CsrMatrix> item_user_;  // per behavior (transpose)
  tensor::CsrMatrix merged_user_item_;        // union over behaviors
  mutable std::map<std::pair<int64_t, int>, std::unique_ptr<SparseOp>>
      unified_cache_;
  mutable std::map<int, std::unique_ptr<SparseOp>> merged_cache_;
};

}  // namespace graph
}  // namespace gnmr

#endif  // GNMR_GRAPH_INTERACTION_GRAPH_H_
