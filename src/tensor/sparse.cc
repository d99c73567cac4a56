#include "src/tensor/sparse.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace gnmr {
namespace tensor {

CsrMatrix CsrMatrix::FromCoo(int64_t rows, int64_t cols,
                             const std::vector<Coo>& entries) {
  GNMR_CHECK_GE(rows, 0);
  GNMR_CHECK_GE(cols, 0);
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;

  // Count entries per row, then bucket-place; O(nnz log nnz) due to the
  // per-row sort for deterministic layout and duplicate merging.
  std::vector<Coo> sorted = entries;
  for (const Coo& e : sorted) {
    GNMR_CHECK(e.row >= 0 && e.row < rows) << "row " << e.row;
    GNMR_CHECK(e.col >= 0 && e.col < cols) << "col " << e.col;
  }
  std::sort(sorted.begin(), sorted.end(), [](const Coo& a, const Coo& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  OwnedVector<int64_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  OwnedVector<int64_t> col_idx;
  OwnedVector<float> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    float acc = 0.0f;
    while (j < sorted.size() && sorted[j].row == sorted[i].row &&
           sorted[j].col == sorted[i].col) {
      acc += sorted[j].value;
      ++j;
    }
    col_idx.push_back(sorted[i].col);
    values.push_back(acc);
    row_ptr[static_cast<size_t>(sorted[i].row) + 1] += 1;
    i = j;
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::FromView(int64_t rows, int64_t cols, int64_t nnz,
                              const int64_t* row_ptr, const int64_t* col_idx,
                              const float* values,
                              std::shared_ptr<const void> keepalive) {
  GNMR_CHECK_GE(rows, 0);
  GNMR_CHECK_GE(cols, 0);
  GNMR_CHECK_GE(nnz, 0);
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = Storage<int64_t>::View(row_ptr, rows + 1, keepalive);
  m.col_idx_ = Storage<int64_t>::View(col_idx, nnz, keepalive);
  m.values_ = Storage<float>::View(values, nnz, std::move(keepalive));
  return m;
}

int64_t CsrMatrix::RowNnz(int64_t r) const {
  GNMR_CHECK(r >= 0 && r < rows_);
  return row_ptr_[static_cast<size_t>(r) + 1] - row_ptr_[static_cast<size_t>(r)];
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  OwnedVector<int64_t> t_row_ptr(static_cast<size_t>(cols_) + 1, 0);
  OwnedVector<int64_t> t_col_idx(static_cast<size_t>(nnz()), 0);
  OwnedVector<float> t_values(static_cast<size_t>(nnz()), 0.0f);

  // Counting pass.
  for (int64_t c : col_idx_) t_row_ptr[static_cast<size_t>(c) + 1] += 1;
  for (size_t r = 0; r < static_cast<size_t>(cols_); ++r) {
    t_row_ptr[r + 1] += t_row_ptr[r];
  }
  // Placement pass; iterating source rows in order keeps target columns
  // sorted within each target row.
  std::vector<int64_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      int64_t c = col_idx_[static_cast<size_t>(p)];
      int64_t dst = cursor[static_cast<size_t>(c)]++;
      t_col_idx[static_cast<size_t>(dst)] = r;
      t_values[static_cast<size_t>(dst)] = values_[static_cast<size_t>(p)];
    }
  }
  t.row_ptr_ = std::move(t_row_ptr);
  t.col_idx_ = std::move(t_col_idx);
  t.values_ = std::move(t_values);
  return t;
}

std::vector<float> CsrMatrix::RowSums() const {
  std::vector<float> sums(static_cast<size_t>(rows_), 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (int64_t p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      acc += values_[static_cast<size_t>(p)];
    }
    sums[static_cast<size_t>(r)] = static_cast<float>(acc);
  }
  return sums;
}

void CsrMatrix::CheckInvariants() const {
  GNMR_CHECK_EQ(static_cast<int64_t>(row_ptr_.size()), rows_ + 1);
  GNMR_CHECK_EQ(row_ptr_.front(), 0);
  GNMR_CHECK_EQ(row_ptr_.back(), nnz());
  GNMR_CHECK_EQ(col_idx_.size(), values_.size());
  for (size_t r = 0; r < static_cast<size_t>(rows_); ++r) {
    GNMR_CHECK_LE(row_ptr_[r], row_ptr_[r + 1]) << "row_ptr not monotone";
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      size_t up = static_cast<size_t>(p);
      GNMR_CHECK(col_idx_[up] >= 0 && col_idx_[up] < cols_)
          << "col out of range in row " << r;
      if (p > row_ptr_[r]) {
        GNMR_CHECK_LT(col_idx_[up - 1], col_idx_[up])
            << "cols not strictly sorted in row " << r;
      }
    }
  }
}

namespace ops {

Tensor Spmm(const CsrMatrix& a, const Tensor& x) {
  GNMR_CHECK_EQ(x.rank(), 2);
  GNMR_CHECK_EQ(a.cols(), x.rows())
      << "Spmm shape mismatch: A cols " << a.cols() << " vs x rows "
      << x.rows();
  Tensor out({a.rows(), x.cols()});
  GetBackend().Spmm(a, x.data(), out.data(), x.cols());
  return out;
}

}  // namespace ops

}  // namespace tensor
}  // namespace gnmr
