#include "src/tensor/shard_plan.h"

#include <algorithm>

#include "src/util/check.h"

namespace gnmr {
namespace tensor {

namespace {

// Largest shard count that keeps every shard at least min_rows wide.
int64_t ClampShardCount(int64_t rows, int64_t num_shards, int64_t min_rows) {
  GNMR_CHECK_GE(rows, 0);
  num_shards = std::max<int64_t>(num_shards, 1);
  min_rows = std::max<int64_t>(min_rows, 1);
  return std::max<int64_t>(1, std::min(num_shards, rows / min_rows));
}

}  // namespace

ShardPlan ShardPlan::Uniform(int64_t rows, int64_t num_shards,
                             int64_t min_rows) {
  ShardPlan plan;
  plan.total_rows_ = rows;
  if (rows == 0) return plan;
  int64_t shards = ClampShardCount(rows, num_shards, min_rows);
  plan.ranges_.reserve(static_cast<size_t>(shards));
  for (int64_t s = 0; s < shards; ++s) {
    // The i*rows/shards split: shard widths differ by at most one row.
    plan.ranges_.push_back({rows * s / shards, rows * (s + 1) / shards, 0});
  }
  return plan;
}

ShardPlan ShardPlan::NnzBalanced(const int64_t* row_ptr, int64_t rows,
                                 int64_t num_shards, int64_t min_rows) {
  ShardPlan plan;
  plan.total_rows_ = rows;
  if (rows == 0) return plan;
  GNMR_CHECK(row_ptr != nullptr);
  min_rows = std::max<int64_t>(min_rows, 1);
  int64_t shards = ClampShardCount(rows, num_shards, min_rows);
  plan.ranges_.reserve(static_cast<size_t>(shards));
  int64_t begin = 0;
  int64_t remaining_nnz = row_ptr[rows] - row_ptr[0];
  for (int64_t s = 0; s < shards; ++s) {
    int64_t remaining_shards = shards - s;
    int64_t end;
    if (remaining_shards == 1) {
      end = rows;
    } else {
      // Re-aimed target: whatever nnz is left, split evenly over the
      // shards still to cut. Rows after max_end are reserved so every
      // later shard keeps its min_rows floor.
      int64_t target =
          (remaining_nnz + remaining_shards - 1) / remaining_shards;
      int64_t max_end = rows - (remaining_shards - 1) * min_rows;
      end = std::min(begin + min_rows, max_end);
      while (end < max_end && row_ptr[end] - row_ptr[begin] < target) {
        ++end;
      }
    }
    int64_t range_nnz = row_ptr[end] - row_ptr[begin];
    plan.ranges_.push_back({begin, end, range_nnz});
    remaining_nnz -= range_nnz;
    begin = end;
  }
  return plan;
}

ShardPlan ShardPlan::NnzBalanced(const CsrMatrix& m, int64_t num_shards,
                                 int64_t min_rows) {
  return NnzBalanced(m.row_ptr().data(), m.rows(), num_shards, min_rows);
}

void ShardPlan::CheckInvariants() const {
  if (total_rows_ == 0) {
    GNMR_CHECK(ranges_.empty()) << "empty plan must have no shards";
    return;
  }
  GNMR_CHECK(!ranges_.empty());
  GNMR_CHECK_EQ(ranges_.front().begin, 0);
  GNMR_CHECK_EQ(ranges_.back().end, total_rows_);
  for (size_t s = 0; s < ranges_.size(); ++s) {
    GNMR_CHECK_LT(ranges_[s].begin, ranges_[s].end)
        << "shard " << s << " is empty";
    if (s > 0) {
      GNMR_CHECK_EQ(ranges_[s - 1].end, ranges_[s].begin)
          << "gap/overlap before shard " << s;
    }
  }
}

}  // namespace tensor
}  // namespace gnmr
