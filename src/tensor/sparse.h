// Compressed sparse row (CSR) matrices and sparse-dense matrix products.
// The multi-behavior interaction graph is lowered to one CsrMatrix per
// behavior type; graph message passing is an SpMM against node embeddings.
#ifndef GNMR_TENSOR_SPARSE_H_
#define GNMR_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/storage.h"
#include "src/tensor/tensor.h"

namespace gnmr {
namespace tensor {

/// A (row, col, value) coordinate entry used to build CSR matrices.
struct Coo {
  int64_t row = 0;
  int64_t col = 0;
  float value = 1.0f;
};

/// Immutable CSR sparse matrix of shape [rows, cols].
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from coordinate entries. Duplicate (row, col) pairs are summed.
  /// Entries may arrive in any order.
  static CsrMatrix FromCoo(int64_t rows, int64_t cols,
                           const std::vector<Coo>& entries);

  /// Non-owning view over externally kept-alive CSR arrays (row_ptr of
  /// size rows+1, col_idx/values of size nnz). `keepalive` — e.g. a
  /// util::MappedFile — is held by the matrix and every copy of it.
  /// Structural invariants are the caller's responsibility; run
  /// CheckInvariants() on untrusted input.
  static CsrMatrix FromView(int64_t rows, int64_t cols, int64_t nnz,
                            const int64_t* row_ptr, const int64_t* col_idx,
                            const float* values,
                            std::shared_ptr<const void> keepalive);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return col_idx_.size(); }
  /// False when the arrays are views over external memory (FromView).
  bool owns_storage() const { return !col_idx_.is_view(); }

  const Storage<int64_t>& row_ptr() const { return row_ptr_; }
  const Storage<int64_t>& col_idx() const { return col_idx_; }
  const Storage<float>& values() const { return values_; }

  /// Number of stored entries in row `r`.
  int64_t RowNnz(int64_t r) const;

  /// Transposed copy (CSR of the transpose, i.e. CSC view materialised).
  CsrMatrix Transposed() const;

  /// Row sums of stored values (the weighted out-degree of each row).
  std::vector<float> RowSums() const;

  /// Structural validation: monotone row_ptr, in-range columns, sorted and
  /// duplicate-free column indices per row. Aborts on violation.
  void CheckInvariants() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  Storage<int64_t> row_ptr_;   // size rows_+1
  Storage<int64_t> col_idx_;   // size nnz, sorted within each row
  Storage<float> values_;      // size nnz
};

namespace ops {

/// Sparse-dense product: out = A * x, A: [n,m] CSR, x: [m,d] -> out: [n,d].
/// Executes through the active tensor::KernelBackend (backend.h).
Tensor Spmm(const CsrMatrix& a, const Tensor& x);

}  // namespace ops

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_SPARSE_H_
