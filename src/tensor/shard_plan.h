// Row-range shard plans: how the sharded execution layer partitions the
// row dimension of a kernel across workers.
//
// A ShardPlan is an ordered list of disjoint, covering [begin, end) row
// ranges. Two partitioners are provided:
//
//   Uniform      — equal row counts; right for dense kernels whose cost is
//                  proportional to the row count (MatMul, GatherRows,
//                  RowDot, elementwise ranges).
//   NnzBalanced  — equal stored-entry counts over a CSR row_ptr; right for
//                  SpMM over power-law interaction graphs, where a handful
//                  of heavy users would otherwise serialize one shard.
//
// Both partitioners respect a minimum shard width and never produce more
// shards than rows, so a plan is safe to hand straight to the shard pool.
// Plans are plain data: building one never touches the matrix values; the
// worker that owns a range walks the parent's CSR arrays over those rows.
#ifndef GNMR_TENSOR_SHARD_PLAN_H_
#define GNMR_TENSOR_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/tensor/sparse.h"

namespace gnmr {
namespace tensor {

/// One contiguous row range [begin, end) plus the stored-entry count the
/// partitioner attributed to it (0 for uniform plans without a matrix).
struct ShardRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t nnz = 0;

  int64_t rows() const { return end - begin; }
};

/// An ordered, disjoint, covering partition of [0, total_rows).
class ShardPlan {
 public:
  ShardPlan() = default;

  /// Partition [0, rows) into at most `num_shards` equal-width ranges of at
  /// least `min_rows` rows each; widths differ by at most one row.
  /// rows == 0 yields an empty plan; num_shards < 1 is clamped to 1.
  static ShardPlan Uniform(int64_t rows, int64_t num_shards,
                           int64_t min_rows = 1);

  /// Partition [0, rows) so every range holds roughly total_nnz/num_shards
  /// stored entries, where row r holds row_ptr[r+1] - row_ptr[r] entries.
  /// Greedy with an adaptive target: each cut re-aims at the remaining
  /// nnz / remaining shards, so light prefixes don't starve the tail.
  /// Ranges keep at least `min_rows` rows (subject to num_shards * min_rows
  /// <= rows, else the shard count shrinks).
  static ShardPlan NnzBalanced(const int64_t* row_ptr, int64_t rows,
                               int64_t num_shards, int64_t min_rows = 1);

  /// NnzBalanced over a CSR matrix's row pointer.
  static ShardPlan NnzBalanced(const CsrMatrix& m, int64_t num_shards,
                               int64_t min_rows = 1);

  int64_t num_shards() const { return static_cast<int64_t>(ranges_.size()); }
  int64_t total_rows() const { return total_rows_; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }
  const ShardRange& shard(int64_t s) const {
    return ranges_[static_cast<size_t>(s)];
  }

  /// Aborts unless the ranges are ordered, disjoint, non-empty and exactly
  /// cover [0, total_rows). Cheap; called by tests and debug paths.
  void CheckInvariants() const;

 private:
  int64_t total_rows_ = 0;
  std::vector<ShardRange> ranges_;
};

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_SHARD_PLAN_H_
