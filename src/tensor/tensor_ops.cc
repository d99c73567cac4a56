#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/tensor/backend.h"
#include "src/tensor/element_ops.h"

namespace gnmr {
namespace tensor {
namespace ops {

namespace {

// Pads `shape` on the left with 1s to `rank` dims.
std::vector<int64_t> PadShape(const std::vector<int64_t>& shape, size_t rank) {
  GNMR_CHECK_LE(shape.size(), rank);
  std::vector<int64_t> out(rank, 1);
  std::copy(shape.begin(), shape.end(),
            out.begin() + static_cast<int64_t>(rank - shape.size()));
  return out;
}

// Row-major strides with 0 stride on broadcast (size-1) dims.
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& padded,
                                      const std::vector<int64_t>& out_shape) {
  std::vector<int64_t> strides(padded.size(), 0);
  int64_t s = 1;
  for (int64_t i = static_cast<int64_t>(padded.size()) - 1; i >= 0; --i) {
    size_t ui = static_cast<size_t>(i);
    strides[ui] = (padded[ui] == 1 && out_shape[ui] != 1) ? 0 : s;
    s *= padded[ui];
  }
  return strides;
}

// Element bodies live in element_ops.h (shared with ad_ops.cc and the SIMD
// backend's vector twins) and parameterize the shared MapLoop/ZipLoop
// templates (backend.h) as compile-time constants: the backend receives a
// pointer to an instantiated loop whose per-element body is fully inlined
// and vectorised, and pays one indirect call per range.
using ElMapFn = float (*)(float x, float p);
using ElZipFn = float (*)(float x, float y, float p);

// The rank-2 broadcast kind of `small` (padded to rank 2) against an
// [n,m] output: kCol for [n,1], kRow for [1,m]; false for anything else
// (scalars against a full matrix, both operands broadcasting, ...).
bool BroadcastKindOf(const std::vector<int64_t>& small,
                     const std::vector<int64_t>& out,
                     KernelBackend::Broadcast* kind) {
  if (small[0] == out[0] && small[1] == 1) {
    *kind = KernelBackend::Broadcast::kCol;
    return true;
  }
  if (small[0] == 1 && small[1] == out[1]) {
    *kind = KernelBackend::Broadcast::kRow;
    return true;
  }
  return false;
}

// Binary elementwise with broadcasting. The same-shape case — layer
// outputs, gradients — is the backend's EltwiseZip; one full [n,m]
// operand against an [n,1] gate or a [1,m] bias row (either order) is its
// BroadcastZip. Only the other broadcast shapes run the strided loop here.
template <ElZipFn F>
Tensor BinaryBroadcast(const Tensor& a, const Tensor& b, float p = 0.0f) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    GetBackend().EltwiseZip(a.data(), b.data(), out.data(), a.numel(),
                            ZipLoop<F>, p);
    return out;
  }
  std::vector<int64_t> out_shape = BroadcastShapes(a.shape(), b.shape());
  size_t rank = out_shape.size();
  std::vector<int64_t> pa = PadShape(a.shape(), rank);
  std::vector<int64_t> pb = PadShape(b.shape(), rank);
  KernelBackend::Broadcast kind = KernelBackend::Broadcast::kCol;
  if (rank == 2 && (pa == out_shape || pb == out_shape)) {
    const bool b_first = pb == out_shape;
    const Tensor& full = b_first ? b : a;
    const Tensor& small = b_first ? a : b;
    if (BroadcastKindOf(b_first ? pa : pb, out_shape, &kind)) {
      Tensor out(out_shape);
      GetBackend().BroadcastZip(full.data(), small.data(), out.data(),
                                out_shape[0], out_shape[1], kind, b_first,
                                ZipLoop<F>, p);
      return out;
    }
  }
  std::vector<int64_t> sa = BroadcastStrides(pa, out_shape);
  std::vector<int64_t> sb = BroadcastStrides(pb, out_shape);

  Tensor out(out_shape);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();

  if (rank == 1) {
    for (int64_t i = 0; i < out_shape[0]; ++i) {
      od[i] = F(ad[i * sa[0]], bd[i * sb[0]], p);
    }
    return out;
  }
  GNMR_CHECK_EQ(rank, 2u) << "broadcast supports rank <= 2";
  int64_t n = out_shape[0];
  int64_t m = out_shape[1];
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = ad + i * sa[0];
    const float* brow = bd + i * sb[0];
    float* orow = od + i * m;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] = F(arow[j * sa[1]], brow[j * sb[1]], p);
    }
  }
  return out;
}

template <ElMapFn F>
Tensor UnaryOp(const Tensor& a, float p = 0.0f) {
  Tensor out(a.shape());
  GetBackend().EltwiseMap(a.data(), out.data(), a.numel(), MapLoop<F>, p);
  return out;
}

}  // namespace

std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b) {
  GNMR_CHECK(!a.empty() && !b.empty());
  GNMR_CHECK(a.size() <= 2 && b.size() <= 2)
      << "broadcast supports rank <= 2";
  size_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> pa = PadShape(a, rank);
  std::vector<int64_t> pb = PadShape(b, rank);
  std::vector<int64_t> out(rank);
  for (size_t i = 0; i < rank; ++i) {
    if (pa[i] == pb[i]) {
      out[i] = pa[i];
    } else if (pa[i] == 1) {
      out[i] = pb[i];
    } else if (pb[i] == 1) {
      out[i] = pa[i];
    } else {
      GNMR_CHECK(false) << "incompatible broadcast dims " << pa[i] << " vs "
                        << pb[i];
    }
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t,
                     const std::vector<int64_t>& target_shape) {
  // Verify target broadcasts to t's shape.
  std::vector<int64_t> check = BroadcastShapes(t.shape(), target_shape);
  GNMR_CHECK(check == t.shape())
      << "target " << Tensor::Zeros(target_shape).ShapeString()
      << " does not broadcast to " << t.ShapeString();
  if (t.shape() == target_shape) return t;

  size_t rank = t.shape().size();
  std::vector<int64_t> pt = PadShape(target_shape, rank);
  Tensor out(pt);
  const float* td = t.data();
  float* od = out.data();
  if (rank == 1) {
    // target dim is 1, t dim is n
    double acc = 0.0;
    for (int64_t i = 0; i < t.dim(0); ++i) acc += td[i];
    od[0] = static_cast<float>(acc);
  } else if (pt[0] == t.dim(0) && pt[1] == 1) {
    GetBackend().RowSums(td, od, t.dim(0), t.dim(1));
  } else if (pt[0] == 1 && pt[1] == t.dim(1)) {
    GetBackend().ColSums(td, od, t.dim(0), t.dim(1));
  } else {
    int64_t n = t.dim(0);
    int64_t m = t.dim(1);
    bool reduce_rows = (pt[0] == 1 && n != 1);
    bool reduce_cols = (pt[1] == 1 && m != 1);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        int64_t oi = reduce_rows ? 0 : i;
        int64_t oj = reduce_cols ? 0 : j;
        od[oi * pt[1] + oj] += td[i * m + j];
      }
    }
  }
  // If the caller's target had lower rank, reshape down.
  if (target_shape.size() != rank) return out.Reshaped(target_shape);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast<&elops::AddEl>(a, b);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast<&elops::SubEl>(a, b);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast<&elops::MulEl>(a, b);
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBroadcast<&elops::DivEl>(a, b);
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp<&elops::AddScalarEl>(a, s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp<&elops::MulScalarEl>(a, s);
}

Tensor Neg(const Tensor& a) { return UnaryOp<&elops::NegEl>(a); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK_EQ(b.rank(), 2);
  GNMR_CHECK_EQ(a.cols(), b.rows())
      << a.ShapeString() << " x " << b.ShapeString();
  int64_t n = a.rows();
  int64_t k = a.cols();
  int64_t m = b.cols();
  Tensor out({n, m});
  GetBackend().MatMul(a.data(), b.data(), out.data(), n, k, m);
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK_EQ(b.rank(), 2);
  GNMR_CHECK_EQ(a.cols(), b.cols())
      << a.ShapeString() << " x " << b.ShapeString() << "^T";
  int64_t n = a.rows();
  int64_t k = a.cols();
  int64_t m = b.rows();
  Tensor out({n, m});
  GetBackend().MatMulTransB(a.data(), b.data(), out.data(), n, k, m);
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK_EQ(b.rank(), 2);
  GNMR_CHECK_EQ(a.rows(), b.rows())
      << a.ShapeString() << "^T x " << b.ShapeString();
  int64_t n = a.cols();
  int64_t k = a.rows();
  int64_t m = b.cols();
  Tensor out({n, m});
  GetBackend().MatMulTransA(a.data(), b.data(), out.data(), n, k, m);
  return out;
}

Tensor Transpose(const Tensor& a) {
  GNMR_CHECK_EQ(a.rank(), 2);
  int64_t n = a.rows();
  int64_t m = a.cols();
  Tensor out({m, n});
  const float* ad = a.data();
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      od[j * n + i] = ad[i * m + j];
    }
  }
  return out;
}

Tensor Relu(const Tensor& a) { return UnaryOp<&elops::ReluEl>(a); }

Tensor LeakyRelu(const Tensor& a, float alpha) {
  return UnaryOp<&elops::LeakyReluEl>(a, alpha);
}

Tensor Sigmoid(const Tensor& a) { return UnaryOp<&elops::SigmoidEl>(a); }

Tensor Tanh(const Tensor& a) { return UnaryOp<&elops::TanhEl>(a); }

Tensor Exp(const Tensor& a) { return UnaryOp<&elops::ExpEl>(a); }

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp<&elops::LogEl>(a, eps);
}

Tensor Sqrt(const Tensor& a) { return UnaryOp<&elops::SqrtEl>(a); }

Tensor Square(const Tensor& a) { return UnaryOp<&elops::SquareEl>(a); }

Tensor Softplus(const Tensor& a) { return UnaryOp<&elops::SoftplusEl>(a); }

Tensor SoftmaxRows(const Tensor& a) {
  GNMR_CHECK_EQ(a.rank(), 2);
  int64_t n = a.rows();
  int64_t m = a.cols();
  Tensor out({n, m});
  const float* ad = a.data();
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = ad + i * m;
    float* orow = od + i * m;
    float mx = arow[0];
    for (int64_t j = 1; j < m; ++j) mx = std::max(mx, arow[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] = std::exp(arow[j] - mx);
      denom += orow[j];
    }
    float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < m; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  GNMR_CHECK_EQ(a.rank(), 2);
  int64_t n = a.rows();
  int64_t m = a.cols();
  Tensor out({n, m});
  const float* ad = a.data();
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = ad + i * m;
    float* orow = od + i * m;
    float mx = arow[0];
    for (int64_t j = 1; j < m; ++j) mx = std::max(mx, arow[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < m; ++j) denom += std::exp(arow[j] - mx);
    float lse = mx + static_cast<float>(std::log(denom));
    for (int64_t j = 0; j < m; ++j) orow[j] = arow[j] - lse;
  }
  return out;
}

Tensor SumAll(const Tensor& a) {
  return Tensor::Scalar(
      static_cast<float>(GetBackend().ReduceSum(a.data(), a.numel())));
}

Tensor MeanAll(const Tensor& a) {
  GNMR_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(
      static_cast<float>(GetBackend().ReduceSum(a.data(), a.numel()) /
                         static_cast<double>(a.numel())));
}

Tensor SumAxis(const Tensor& a, int axis) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK(axis == 0 || axis == 1);
  int64_t n = a.rows();
  int64_t m = a.cols();
  const float* ad = a.data();
  if (axis == 0) {
    Tensor out({1, m});
    GetBackend().ColSums(ad, out.data(), n, m);
    return out;
  }
  Tensor out({n, 1});
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < m; ++j) acc += ad[i * m + j];
    od[i] = static_cast<float>(acc);
  }
  return out;
}

Tensor MeanAxis(const Tensor& a, int axis) {
  Tensor s = SumAxis(a, axis);
  float denom = axis == 0 ? static_cast<float>(a.rows())
                          : static_cast<float>(a.cols());
  return MulScalar(s, 1.0f / denom);
}

Tensor ConcatCols(const std::vector<const Tensor*>& parts) {
  GNMR_CHECK(!parts.empty());
  int64_t n = parts[0]->rows();
  int64_t total_cols = 0;
  for (const Tensor* p : parts) {
    GNMR_CHECK_EQ(p->rank(), 2);
    GNMR_CHECK_EQ(p->rows(), n);
    total_cols += p->cols();
  }
  Tensor out = Tensor::Uninitialized({n, total_cols});  // parts tile it
  float* od = out.data();
  int64_t col_off = 0;
  for (const Tensor* p : parts) {
    int64_t m = p->cols();
    const float* pd = p->data();
    for (int64_t i = 0; i < n; ++i) {
      std::copy(pd + i * m, pd + (i + 1) * m, od + i * total_cols + col_off);
    }
    col_off += m;
  }
  return out;
}

Tensor ConcatRows(const std::vector<const Tensor*>& parts) {
  GNMR_CHECK(!parts.empty());
  int64_t m = parts[0]->cols();
  int64_t total_rows = 0;
  for (const Tensor* p : parts) {
    GNMR_CHECK_EQ(p->rank(), 2);
    GNMR_CHECK_EQ(p->cols(), m);
    total_rows += p->rows();
  }
  Tensor out = Tensor::Uninitialized({total_rows, m});  // parts tile it
  float* od = out.data();
  int64_t row_off = 0;
  for (const Tensor* p : parts) {
    std::copy(p->data(), p->data() + p->numel(), od + row_off * m);
    row_off += p->rows();
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK_GE(start, 0);
  GNMR_CHECK_GT(len, 0);
  GNMR_CHECK_LE(start + len, a.cols());
  int64_t n = a.rows();
  int64_t m = a.cols();
  Tensor out = Tensor::Uninitialized({n, len});  // every row copied
  const float* ad = a.data();
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    std::copy(ad + i * m + start, ad + i * m + start + len, od + i * len);
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK_GE(start, 0);
  GNMR_CHECK_GT(len, 0);
  GNMR_CHECK_LE(start + len, a.rows());
  int64_t m = a.cols();
  Tensor out = Tensor::Uninitialized({len, m});  // one whole copy
  std::copy(a.data() + start * m, a.data() + (start + len) * m, out.data());
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& idx) {
  GNMR_CHECK_EQ(a.rank(), 2);
  int64_t n = a.rows();
  int64_t m = a.cols();
  for (int64_t src : idx) {
    GNMR_CHECK(src >= 0 && src < n) << "gather index " << src;
  }
  // Every output row is one copied source row.
  Tensor out = Tensor::Uninitialized({static_cast<int64_t>(idx.size()), m});
  GetBackend().GatherRows(a.data(), m, idx.data(),
                          static_cast<int64_t>(idx.size()), out.data());
  return out;
}

void ScatterAddRows(Tensor* target, const std::vector<int64_t>& idx,
                    const Tensor& src) {
  GNMR_CHECK_EQ(target->rank(), 2);
  GNMR_CHECK_EQ(src.rank(), 2);
  GNMR_CHECK_EQ(src.rows(), static_cast<int64_t>(idx.size()));
  GNMR_CHECK_EQ(src.cols(), target->cols());
  int64_t n = target->rows();
  for (int64_t dst : idx) {
    GNMR_CHECK(dst >= 0 && dst < n) << "scatter index " << dst;
  }
  GetBackend().ScatterAddRows(target->data(), n, target->cols(), idx.data(),
                              static_cast<int64_t>(idx.size()), src.data());
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  GNMR_CHECK_EQ(a.rank(), 2);
  GNMR_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  int64_t n = a.rows();
  int64_t m = a.cols();
  Tensor out({n, 1});
  GetBackend().RowDot(a.data(), b.data(), out.data(), n, m);
  return out;
}

}  // namespace ops
}  // namespace tensor
}  // namespace gnmr
