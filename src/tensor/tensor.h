// Dense row-major float32 tensor with value semantics. This is the storage
// type underneath the autodiff layer (see autodiff.h); forward-only math on
// raw tensors lives in tensor_ops.h. The buffer behind a tensor is a
// Storage<float> (storage.h): owned heap memory by default, or a read-only
// view over externally kept-alive memory (FromView) — the mechanism that
// lets model_io serve embeddings straight out of a memory-mapped artifact.
#ifndef GNMR_TENSOR_TENSOR_H_
#define GNMR_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/storage.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace gnmr {
namespace tensor {

/// Dense row-major float tensor. Rank 0 is disallowed; scalars are
/// represented as shape {1}. Copying copies the buffer (value semantics);
/// moves are O(1).
class Tensor {
 public:
  /// Empty tensor (numel 0, rank 0). Only assignable/queryable.
  Tensor() = default;

  /// Zero-initialised tensor of the given shape. All dims must be positive.
  /// Kernels that accumulate into their output (+=) start from this.
  explicit Tensor(std::vector<int64_t> shape);

  /// Tensor of the given shape whose elements are left unwritten: no zero
  /// fill, so a recycled heap buffer keeps whatever it held. Only for an
  /// op that writes every element before anything reads it. In
  /// AddressSanitizer builds the elements are quiet NaN instead, so a
  /// bitwise test fails on any element such an op leaves unwritten.
  static Tensor Uninitialized(std::vector<int64_t> shape);

  /// Factory helpers -------------------------------------------------------

  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// Scalar tensor of shape {1}.
  static Tensor Scalar(float value);
  /// Takes ownership of `data`; data.size() must equal the shape's numel.
  static Tensor FromData(std::vector<int64_t> shape, OwnedVector<float> data);
  /// i.i.d. N(mean, stddev^2) entries.
  static Tensor RandomNormal(std::vector<int64_t> shape, util::Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);
  /// i.i.d. U[lo, hi) entries.
  static Tensor RandomUniform(std::vector<int64_t> shape, util::Rng* rng,
                              float lo = 0.0f, float hi = 1.0f);
  /// Non-owning read-only view of the shape's numel floats at `data`.
  /// `keepalive` (e.g. a util::MappedFile) is held by the tensor and every
  /// copy of it, so the memory outlives all views. The tensor is
  /// immutable: mutating accessors abort.
  static Tensor FromView(std::vector<int64_t> shape, const float* data,
                         std::shared_ptr<const void> keepalive);

  /// Shape queries ----------------------------------------------------------

  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }
  /// e.g. "[3, 4]".
  std::string ShapeString() const;

  /// Rank-2 conveniences. Require rank() == 2.
  int64_t rows() const;
  int64_t cols() const;

  /// Element access ---------------------------------------------------------

  /// Mutable access aborts on view tensors (see FromView); code that only
  /// reads should go through a const reference / std::as_const.
  float* data() { return data_.mutable_data(); }
  const float* data() const { return data_.data(); }

  /// False when the buffer is a view over external memory (FromView /
  /// memory-mapped artifacts); such tensors are read-only.
  bool owns_storage() const { return !data_.is_view(); }

  /// Bounds-checked element access for rank-1 tensors.
  float& at(int64_t i);
  float at(int64_t i) const;
  /// Bounds-checked element access for rank-2 tensors.
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  /// Bounds-checked element access for rank-3 tensors.
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;

  /// Mutation helpers -------------------------------------------------------

  /// Sets every element to `value`. Aborts on view tensors.
  void Fill(float value);
  /// Copy (same as copy-construction; provided for call-site clarity).
  /// Deep for owned tensors; O(1) keepalive-sharing for views.
  Tensor Clone() const { return *this; }
  /// Deep copy into freshly owned storage, even when this is a view.
  Tensor OwnedCopy() const;
  /// Returns a tensor with the same data viewed under a new shape.
  /// numel must be preserved. Copies owned data; shares a view's buffer.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  /// Whole-tensor reductions (forward-only conveniences) --------------------

  float SumValue() const;
  float MeanValue() const;
  float MaxValue() const;
  float MinValue() const;
  /// Frobenius / L2 norm of all elements.
  float L2Norm() const;
  /// True if any element is NaN or +-inf.
  bool HasNonFinite() const;

 private:
  std::vector<int64_t> shape_;
  Storage<float> data_;
};

/// Computes the number of elements implied by a shape; checks positivity.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_TENSOR_H_
