// Owned-or-view buffer underneath Tensor and CsrMatrix. A Storage<T>
// either owns a heap std::vector<T> (the default, value semantics) or is
// a non-owning read-only view over memory kept alive by a shared keepalive
// — typically a util::MappedFile, so a whole serving model can be served
// straight out of the page cache with zero copies (model_io.h,
// LoadServingModelMapped).
//
// Views are immutable: every mutating accessor aborts with a clear
// message. Copying a view is O(1) and shares the keepalive; copying an
// owned storage deep-copies, exactly like the std::vector it wraps.
#ifndef GNMR_TENSOR_STORAGE_H_
#define GNMR_TENSOR_STORAGE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace gnmr {
namespace tensor {

template <typename T>
class Storage {
 public:
  /// Empty owned storage.
  Storage() = default;

  /// Owned storage adopting `data`. Intentionally implicit so call sites
  /// can assign a freshly built std::vector directly.
  Storage(std::vector<T> data)  // NOLINT(runtime/explicit)
      : owned_(std::move(data)) {}

  /// Non-owning read-only view of `size` elements at `data`. `keepalive`
  /// is held for the lifetime of this storage (and every copy of it) so
  /// the underlying memory — e.g. an mmap'ed artifact — cannot be
  /// unmapped while any view is alive. `data` may be null only when
  /// size == 0.
  static Storage View(const T* data, int64_t size,
                      std::shared_ptr<const void> keepalive) {
    GNMR_CHECK_GE(size, 0);
    GNMR_CHECK(data != nullptr || size == 0) << "null view with size " << size;
    Storage s;
    s.view_ = data;
    s.view_size_ = size;
    s.keepalive_ = std::move(keepalive);
    s.is_view_ = true;
    return s;
  }

  bool is_view() const { return is_view_; }

  int64_t size() const {
    return is_view_ ? view_size_ : static_cast<int64_t>(owned_.size());
  }
  bool empty() const { return size() == 0; }

  const T* data() const { return is_view_ ? view_ : owned_.data(); }

  /// Mutable access; aborts on views — view-backed tensors (memory-mapped
  /// model state) are read-only by construction.
  T* mutable_data() {
    GNMR_CHECK(!is_view_) << "attempt to mutate view (mmap-backed) storage";
    return owned_.data();
  }

  /// Replaces the contents with `n` copies of `value`; owned storage only.
  void assign(size_t n, const T& value) {
    GNMR_CHECK(!is_view_) << "attempt to mutate view (mmap-backed) storage";
    owned_.assign(n, value);
  }

  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }

  /// Iteration is read-only regardless of ownership.
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  /// Element-wise content equality, ignoring ownership.
  bool operator==(const Storage& other) const {
    if (size() != other.size()) return false;
    const T* a = data();
    const T* b = other.data();
    for (int64_t i = 0; i < size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  bool operator!=(const Storage& other) const { return !(*this == other); }

  /// The keepalive anchoring a view's memory (null for owned storage).
  const std::shared_ptr<const void>& keepalive() const { return keepalive_; }

 private:
  std::vector<T> owned_;
  const T* view_ = nullptr;
  int64_t view_size_ = 0;
  std::shared_ptr<const void> keepalive_;
  bool is_view_ = false;
};

}  // namespace tensor
}  // namespace gnmr

#endif  // GNMR_TENSOR_STORAGE_H_
