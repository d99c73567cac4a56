// Tests for the multi-behavior interaction graph and samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/graph/interaction_graph.h"
#include "src/graph/negative_sampler.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace gnmr {
namespace graph {
namespace {

// 3 users, 4 items, 2 behaviors (0 = view, 1 = buy).
// views: u0-{i0,i1}, u1-{i1,i2}, u2-{i3}
// buys:  u0-{i1},    u2-{i3}
std::vector<Interaction> TestEvents() {
  return {
      {0, 0, 0, 0}, {0, 1, 0, 1}, {1, 1, 0, 2}, {1, 2, 0, 3}, {2, 3, 0, 4},
      {0, 1, 1, 5}, {2, 3, 1, 6},
  };
}

MultiBehaviorGraph TestGraph() {
  return MultiBehaviorGraph(3, 4, 2, TestEvents());
}

TEST(GraphTest, BasicCounts) {
  MultiBehaviorGraph g = TestGraph();
  g.CheckInvariants();
  EXPECT_EQ(g.num_users(), 3);
  EXPECT_EQ(g.num_items(), 4);
  EXPECT_EQ(g.num_behaviors(), 2);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.NumEdges(0), 5);
  EXPECT_EQ(g.NumEdges(1), 2);
  EXPECT_EQ(g.NumEdgesTotal(), 5);  // buys are a subset of views here
}

TEST(GraphTest, DuplicateEventsCollapse) {
  auto events = TestEvents();
  events.push_back({0, 0, 0, 9});  // duplicate view
  MultiBehaviorGraph g(3, 4, 2, events);
  EXPECT_EQ(g.NumEdges(0), 5);
  // Edge value stays binary after collapse.
  EXPECT_FLOAT_EQ(g.UserItem(0).values()[0], 1.0f);
}

TEST(GraphTest, NeighborQueries) {
  MultiBehaviorGraph g = TestGraph();
  EXPECT_EQ(g.ItemsOf(0, 0), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(g.ItemsOf(0, 1), (std::vector<int64_t>{1}));
  EXPECT_EQ(g.UsersOf(1, 0), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(g.UsersOf(3, 1), (std::vector<int64_t>{2}));
  EXPECT_TRUE(g.ItemsOf(2, 1).size() == 1);
}

TEST(GraphTest, EdgeMembership) {
  MultiBehaviorGraph g = TestGraph();
  EXPECT_TRUE(g.HasEdge(0, 1, 0));
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
  EXPECT_FALSE(g.HasEdge(0, 2, 0));
  EXPECT_FALSE(g.HasEdge(1, 1, 1));
}

TEST(GraphTest, Degrees) {
  MultiBehaviorGraph g = TestGraph();
  EXPECT_EQ(g.UserDegree(0, 0), 2);
  EXPECT_EQ(g.UserDegree(0, 1), 1);
  EXPECT_EQ(g.UserDegree(1, 1), 0);
  EXPECT_EQ(g.ItemDegree(1, 0), 2);
  EXPECT_EQ(g.ItemDegree(0, 1), 0);
}

TEST(GraphTest, UnifiedAdjacencySumNorm) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* op = g.UnifiedAdjacency(0, NeighborNorm::kSum);
  op->forward.CheckInvariants();
  op->backward.CheckInvariants();
  EXPECT_EQ(op->forward.rows(), 7);
  // Unified graph has one entry per direction per edge.
  EXPECT_EQ(op->forward.nnz(), 2 * g.NumEdges(0));
  // Propagating all-ones counts neighbors (degree vector).
  tensor::Tensor ones = tensor::Tensor::Ones({7, 1});
  tensor::Tensor deg = tensor::ops::Spmm(op->forward, ones);
  EXPECT_FLOAT_EQ(deg.at(0, 0), 2.0f);  // u0 views 2 items
  EXPECT_FLOAT_EQ(deg.at(3 + 1, 0), 2.0f);  // i1 viewed by 2 users
  EXPECT_FLOAT_EQ(deg.at(3 + 0, 0), 1.0f);  // i0 viewed by u0 only
}

TEST(GraphTest, UnifiedAdjacencyMeanNorm) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* op = g.UnifiedAdjacency(0, NeighborNorm::kMean);
  tensor::Tensor ones = tensor::Tensor::Ones({7, 1});
  tensor::Tensor m = tensor::ops::Spmm(op->forward, ones);
  // Mean aggregation of ones is exactly 1 for nodes with neighbors.
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(3 + 3, 0), 1.0f);
}

TEST(GraphTest, UnifiedAdjacencySqrtNormRowSums) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* op = g.UnifiedAdjacency(0, NeighborNorm::kSqrtDegree);
  // Row sum for u0 (deg 2, neighbors i0 deg 1 and i1 deg 2):
  // 1/sqrt(2*1) + 1/sqrt(2*2) ~= 0.7071 + 0.5
  auto sums = op->forward.RowSums();
  EXPECT_NEAR(sums[0], 1.0f / std::sqrt(2.0f) + 0.5f, 1e-5f);
}

TEST(GraphTest, UnifiedAdjacencyIsCached) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* a = g.UnifiedAdjacency(0, NeighborNorm::kSum);
  const SparseOp* b = g.UnifiedAdjacency(0, NeighborNorm::kSum);
  EXPECT_EQ(a, b);
  const SparseOp* c = g.UnifiedAdjacency(0, NeighborNorm::kMean);
  EXPECT_NE(a, c);
}

TEST(GraphTest, MergedAdjacencyUnionsBehaviors) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* op = g.MergedAdjacency(NeighborNorm::kSum);
  EXPECT_EQ(op->forward.nnz(), 2 * g.NumEdgesTotal());
}

TEST(GraphTest, BackwardIsTranspose) {
  MultiBehaviorGraph g = TestGraph();
  const SparseOp* op = g.UnifiedAdjacency(1, NeighborNorm::kMean);
  // backward^T == forward
  tensor::CsrMatrix t = op->backward.Transposed();
  EXPECT_EQ(t.row_ptr(), op->forward.row_ptr());
  EXPECT_EQ(t.col_idx(), op->forward.col_idx());
  EXPECT_EQ(t.values(), op->forward.values());
}

TEST(GraphDeathTest, OutOfRangeInteractionAborts) {
  EXPECT_DEATH(MultiBehaviorGraph(2, 2, 1, {{2, 0, 0, 0}}), "user");
  EXPECT_DEATH(MultiBehaviorGraph(2, 2, 1, {{0, 2, 0, 0}}), "item");
  EXPECT_DEATH(MultiBehaviorGraph(2, 2, 1, {{0, 0, 1, 0}}), "behavior");
}

// ------------------------------------------------------- NegativeSampler ----

TEST(NegativeSamplerTest, NeverReturnsPositives) {
  MultiBehaviorGraph g = TestGraph();
  NegativeSampler sampler(&g, /*target_behavior=*/1);
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t item = sampler.SampleOne(0, &rng);
    EXPECT_FALSE(g.HasEdge(0, item, 1)) << "sampled positive " << item;
  }
}

TEST(NegativeSamplerTest, AuxiliaryItemsRemainEligible) {
  MultiBehaviorGraph g = TestGraph();
  NegativeSampler sampler(&g, /*target_behavior=*/1);
  util::Rng rng(11);
  // u0 viewed i0 but never bought it: i0 must appear among negatives.
  bool saw_viewed_item = false;
  for (int i = 0; i < 200 && !saw_viewed_item; ++i) {
    saw_viewed_item = sampler.SampleOne(0, &rng) == 0;
  }
  EXPECT_TRUE(saw_viewed_item);
}

TEST(NegativeSamplerTest, DistinctSampling) {
  MultiBehaviorGraph g = TestGraph();
  NegativeSampler sampler(&g, 1);
  util::Rng rng(13);
  auto negs = sampler.Sample(1, 4, /*distinct=*/true, &rng);
  std::set<int64_t> uniq(negs.begin(), negs.end());
  EXPECT_EQ(uniq.size(), 4u);  // u1 has no buys: all 4 items eligible
}

TEST(NegativeSamplerTest, NumEligible) {
  MultiBehaviorGraph g = TestGraph();
  NegativeSampler sampler(&g, 1);
  EXPECT_EQ(sampler.NumEligible(0), 3);
  EXPECT_EQ(sampler.NumEligible(1), 4);
}

}  // namespace
}  // namespace graph
}  // namespace gnmr
