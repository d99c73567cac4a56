// Tests for CSR matrices and sparse-dense products.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/tensor/sparse.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace gnmr {
namespace tensor {
namespace {

namespace top = ops;

CsrMatrix SmallMatrix() {
  // [[1 0 2]
  //  [0 0 0]
  //  [3 4 0]]
  return CsrMatrix::FromCoo(3, 3,
                            {{0, 0, 1.0f}, {0, 2, 2.0f}, {2, 0, 3.0f},
                             {2, 1, 4.0f}});
}

TEST(CsrTest, FromCooBuildsSortedRows) {
  // Unsorted input incl. a duplicate that must be summed.
  CsrMatrix m = CsrMatrix::FromCoo(
      2, 4, {{1, 3, 1.0f}, {0, 2, 5.0f}, {1, 0, 2.0f}, {1, 3, 1.5f}});
  m.CheckInvariants();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  // Duplicate (1,3) summed to 2.5.
  EXPECT_FLOAT_EQ(m.values()[2], 2.5f);
  EXPECT_EQ(m.col_idx()[1], 0);
  EXPECT_EQ(m.col_idx()[2], 3);
}

TEST(CsrTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 3, {});
  m.CheckInvariants();
  EXPECT_EQ(m.nnz(), 0);
  Tensor x = Tensor::Ones({3, 2});
  Tensor y = top::Spmm(m, x);
  EXPECT_EQ(y.SumValue(), 0.0f);
}

TEST(CsrTest, EmptyRowsHandled) {
  CsrMatrix m = SmallMatrix();
  m.CheckInvariants();
  EXPECT_EQ(m.RowNnz(1), 0);
}

TEST(CsrTest, TransposedTwiceIsIdentity) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix tt = m.Transposed().Transposed();
  tt.CheckInvariants();
  EXPECT_EQ(tt.rows(), m.rows());
  EXPECT_EQ(tt.nnz(), m.nnz());
  EXPECT_EQ(tt.row_ptr(), m.row_ptr());
  EXPECT_EQ(tt.col_idx(), m.col_idx());
  EXPECT_EQ(tt.values(), m.values());
}

TEST(CsrTest, TransposedMatchesDense) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix t = m.Transposed();
  t.CheckInvariants();
  // Dense checks: t[j][i] == m[i][j].
  Tensor eye({3, 3});
  for (int64_t i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  Tensor md = top::Spmm(m, eye);
  Tensor td = top::Spmm(t, eye);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(td.at(j, i), md.at(i, j));
}

TEST(CsrTest, RowSums) {
  CsrMatrix m = SmallMatrix();
  auto sums = m.RowSums();
  EXPECT_FLOAT_EQ(sums[0], 3.0f);
  EXPECT_FLOAT_EQ(sums[1], 0.0f);
  EXPECT_FLOAT_EQ(sums[2], 7.0f);
}

TEST(CsrViewTest, FromViewMatchesOwned) {
  // A view over an owned matrix's arrays behaves identically: same
  // structure queries, same SpMM result, same row-range views.
  auto owner = std::make_shared<CsrMatrix>(SmallMatrix());
  CsrMatrix view = CsrMatrix::FromView(
      owner->rows(), owner->cols(), owner->nnz(), owner->row_ptr().data(),
      owner->col_idx().data(), owner->values().data(), owner);
  EXPECT_FALSE(view.owns_storage());
  view.CheckInvariants();
  EXPECT_EQ(view.nnz(), owner->nnz());
  EXPECT_EQ(view.row_ptr(), owner->row_ptr());
  EXPECT_EQ(view.RowNnz(2), 2);

  util::Rng rng(7);
  Tensor x = Tensor::RandomNormal({3, 4}, &rng);
  Tensor from_owned = top::Spmm(*owner, x);
  Tensor from_view = top::Spmm(view, x);
  for (int64_t i = 0; i < from_owned.numel(); ++i) {
    EXPECT_EQ(std::as_const(from_owned).data()[i],
              std::as_const(from_view).data()[i]);
  }
}

TEST(CsrViewTest, KeepaliveSurvivesOwnerHandleDrop) {
  std::weak_ptr<CsrMatrix> observer;
  CsrMatrix view;
  {
    auto owner = std::make_shared<CsrMatrix>(SmallMatrix());
    observer = owner;
    view = CsrMatrix::FromView(owner->rows(), owner->cols(), owner->nnz(),
                               owner->row_ptr().data(),
                               owner->col_idx().data(),
                               owner->values().data(), owner);
  }
  EXPECT_FALSE(observer.expired());  // the view pins the owner
  EXPECT_EQ(view.RowNnz(0), 2);
  view = CsrMatrix();
  EXPECT_TRUE(observer.expired());
}

TEST(CsrViewTest, DerivedCopiesOwnTheirData) {
  auto owner = std::make_shared<CsrMatrix>(SmallMatrix());
  CsrMatrix view = CsrMatrix::FromView(
      owner->rows(), owner->cols(), owner->nnz(), owner->row_ptr().data(),
      owner->col_idx().data(), owner->values().data(), owner);
  // Transform paths materialise owned outputs from a view input.
  CsrMatrix t = view.Transposed();
  EXPECT_TRUE(t.owns_storage());
  t.CheckInvariants();
  EXPECT_EQ(t.col_idx(), owner->Transposed().col_idx());
}

TEST(CsrDeathTest, OutOfRangeEntryAborts) {
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.0f}}), "row");
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{0, 2, 1.0f}}), "col");
}

TEST(SpmmTest, MatchesManual) {
  CsrMatrix m = SmallMatrix();
  Tensor x = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor y = top::Spmm(m, x);
  // row0: 1*[1,2] + 2*[5,6] = [11,14]; row1: 0; row2: 3*[1,2]+4*[3,4]=[15,22]
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 14.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 15.0f);
  EXPECT_FLOAT_EQ(y.at(2, 1), 22.0f);
}

// Property sweep: SpMM agrees with dense matmul on random sparse matrices.
class SpmmPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpmmPropertyTest, AgreesWithDense) {
  auto [n, m, d, density] = GetParam();
  util::Rng rng(static_cast<uint64_t>(n * 1000 + m * 10 + d));
  std::vector<Coo> entries;
  Tensor dense({n, m});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      if (rng.Bernoulli(density)) {
        float v = rng.Normal();
        entries.push_back({i, j, v});
        dense.at(i, j) = v;
      }
    }
  }
  CsrMatrix sparse = CsrMatrix::FromCoo(n, m, entries);
  sparse.CheckInvariants();
  Tensor x = Tensor::RandomNormal({m, d}, &rng);
  Tensor ys = top::Spmm(sparse, x);
  Tensor yd = top::MatMul(dense, x);
  ASSERT_TRUE(ys.SameShape(yd));
  for (int64_t i = 0; i < ys.numel(); ++i) {
    EXPECT_NEAR(ys.data()[i], yd.data()[i], 1e-4f);
  }
  // Transpose consistency as well.
  Tensor xt = Tensor::RandomNormal({n, d}, &rng);
  Tensor yst = top::Spmm(sparse.Transposed(), xt);
  Tensor ydt = top::MatMul(top::Transpose(dense), xt);
  for (int64_t i = 0; i < yst.numel(); ++i) {
    EXPECT_NEAR(yst.data()[i], ydt.data()[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmPropertyTest,
    ::testing::Values(std::make_tuple(5, 5, 3, 0.5),
                      std::make_tuple(20, 10, 4, 0.1),
                      std::make_tuple(1, 30, 8, 0.3),
                      std::make_tuple(30, 1, 2, 0.9),
                      std::make_tuple(50, 40, 16, 0.05)));

}  // namespace
}  // namespace tensor
}  // namespace gnmr
