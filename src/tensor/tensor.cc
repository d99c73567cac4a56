#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "src/util/sanitizer.h"

namespace gnmr {
namespace tensor {

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  GNMR_CHECK(!shape.empty()) << "rank-0 shapes are not supported";
  int64_t n = 1;
  for (int64_t d : shape) {
    GNMR_CHECK_GT(d, 0) << "shape dims must be positive";
    n *= d;
  }
  return n;
}

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(ShapeNumel(shape_)), 0.0f);
}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  const size_t n = static_cast<size_t>(ShapeNumel(shape));
  Tensor t;
  t.shape_ = std::move(shape);
#if GNMR_ASAN
  t.data_ = OwnedVector<float>(n, std::numeric_limits<float>::quiet_NaN());
#else
  t.data_ = OwnedVector<float>(n);
#endif
  return t;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  return Full(std::move(shape), 1.0f);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) { return Full({1}, value); }

Tensor Tensor::FromData(std::vector<int64_t> shape,
                        OwnedVector<float> data) {
  int64_t n = ShapeNumel(shape);
  GNMR_CHECK_EQ(n, static_cast<int64_t>(data.size()));
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::FromView(std::vector<int64_t> shape, const float* data,
                        std::shared_ptr<const void> keepalive) {
  int64_t n = ShapeNumel(shape);
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = Storage<float>::View(data, n, std::move(keepalive));
  return t;
}

Tensor Tensor::RandomNormal(std::vector<int64_t> shape, util::Rng* rng,
                            float mean, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data_.mutable_data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng->Normal(mean, stddev);
  return t;
}

Tensor Tensor::RandomUniform(std::vector<int64_t> shape, util::Rng* rng,
                             float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data_.mutable_data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng->Uniform(lo, hi);
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  GNMR_CHECK_GE(i, 0);
  GNMR_CHECK_LT(i, rank());
  return shape_[static_cast<size_t>(i)];
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

int64_t Tensor::rows() const {
  GNMR_CHECK_EQ(rank(), 2);
  return shape_[0];
}

int64_t Tensor::cols() const {
  GNMR_CHECK_EQ(rank(), 2);
  return shape_[1];
}

float& Tensor::at(int64_t i) {
  GNMR_CHECK_EQ(rank(), 1);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "index " << i;
  return data_.mutable_data()[i];
}

float Tensor::at(int64_t i) const {
  GNMR_CHECK_EQ(rank(), 1);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "index " << i;
  return data_[static_cast<size_t>(i)];
}

float& Tensor::at(int64_t i, int64_t j) {
  GNMR_CHECK_EQ(rank(), 2);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "row " << i;
  GNMR_CHECK(j >= 0 && j < shape_[1]) << "col " << j;
  return data_.mutable_data()[i * shape_[1] + j];
}

float Tensor::at(int64_t i, int64_t j) const {
  GNMR_CHECK_EQ(rank(), 2);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "row " << i;
  GNMR_CHECK(j >= 0 && j < shape_[1]) << "col " << j;
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  GNMR_CHECK_EQ(rank(), 3);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "dim0 " << i;
  GNMR_CHECK(j >= 0 && j < shape_[1]) << "dim1 " << j;
  GNMR_CHECK(k >= 0 && k < shape_[2]) << "dim2 " << k;
  return data_.mutable_data()[(i * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  GNMR_CHECK_EQ(rank(), 3);
  GNMR_CHECK(i >= 0 && i < shape_[0]) << "dim0 " << i;
  GNMR_CHECK(j >= 0 && j < shape_[1]) << "dim1 " << j;
  GNMR_CHECK(k >= 0 && k < shape_[2]) << "dim2 " << k;
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

void Tensor::Fill(float value) {
  float* p = data_.mutable_data();
  std::fill(p, p + numel(), value);
}

Tensor Tensor::OwnedCopy() const {
  return FromData(shape_, OwnedVector<float>(data_.begin(), data_.end()));
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  GNMR_CHECK_EQ(ShapeNumel(new_shape), numel());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

float Tensor::SumValue() const {
  // Double accumulation: reductions feed metrics and losses, keep them
  // stable.
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v);
  return static_cast<float>(sum);
}

float Tensor::MeanValue() const {
  GNMR_CHECK_GT(numel(), 0);
  return SumValue() / static_cast<float>(numel());
}

float Tensor::MaxValue() const {
  GNMR_CHECK_GT(numel(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::MinValue() const {
  GNMR_CHECK_GT(numel(), 0);
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::L2Norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

bool Tensor::HasNonFinite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace tensor
}  // namespace gnmr
