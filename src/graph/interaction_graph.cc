#include "src/graph/interaction_graph.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace gnmr {
namespace graph {

using tensor::Coo;
using tensor::CsrMatrix;

MultiBehaviorGraph::MultiBehaviorGraph(
    int64_t num_users, int64_t num_items, int64_t num_behaviors,
    const std::vector<Interaction>& interactions)
    : num_users_(num_users),
      num_items_(num_items),
      num_behaviors_(num_behaviors) {
  GNMR_CHECK_GT(num_users, 0);
  GNMR_CHECK_GT(num_items, 0);
  GNMR_CHECK_GT(num_behaviors, 0);

  std::vector<std::vector<Coo>> per_behavior(
      static_cast<size_t>(num_behaviors));
  std::vector<Coo> merged;
  merged.reserve(interactions.size());
  for (const Interaction& e : interactions) {
    GNMR_CHECK(e.user >= 0 && e.user < num_users) << "user " << e.user;
    GNMR_CHECK(e.item >= 0 && e.item < num_items) << "item " << e.item;
    GNMR_CHECK(e.behavior >= 0 && e.behavior < num_behaviors)
        << "behavior " << e.behavior;
    per_behavior[static_cast<size_t>(e.behavior)].push_back(
        {e.user, e.item, 1.0f});
    merged.push_back({e.user, e.item, 1.0f});
  }

  user_item_.reserve(static_cast<size_t>(num_behaviors));
  item_user_.reserve(static_cast<size_t>(num_behaviors));
  for (int64_t k = 0; k < num_behaviors; ++k) {
    CsrMatrix ui =
        CsrMatrix::FromCoo(num_users, num_items,
                           per_behavior[static_cast<size_t>(k)]);
    // Duplicate events collapsed to value 1 (binary adjacency).
    CsrMatrix binary = ui;
    {
      std::vector<Coo> entries;
      entries.reserve(static_cast<size_t>(ui.nnz()));
      for (int64_t r = 0; r < ui.rows(); ++r) {
        for (int64_t p = ui.row_ptr()[static_cast<size_t>(r)];
             p < ui.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
          entries.push_back({r, ui.col_idx()[static_cast<size_t>(p)], 1.0f});
        }
      }
      binary = CsrMatrix::FromCoo(num_users, num_items, entries);
    }
    item_user_.push_back(binary.Transposed());
    user_item_.push_back(std::move(binary));
  }
  {
    CsrMatrix m = CsrMatrix::FromCoo(num_users, num_items, merged);
    std::vector<Coo> entries;
    entries.reserve(static_cast<size_t>(m.nnz()));
    for (int64_t r = 0; r < m.rows(); ++r) {
      for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
           p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
        entries.push_back({r, m.col_idx()[static_cast<size_t>(p)], 1.0f});
      }
    }
    merged_user_item_ = CsrMatrix::FromCoo(num_users, num_items, entries);
  }
}

int64_t MultiBehaviorGraph::NumEdges(int64_t behavior) const {
  return UserItem(behavior).nnz();
}

int64_t MultiBehaviorGraph::NumEdgesTotal() const {
  return merged_user_item_.nnz();
}

const CsrMatrix& MultiBehaviorGraph::UserItem(int64_t behavior) const {
  GNMR_CHECK(behavior >= 0 && behavior < num_behaviors_);
  return user_item_[static_cast<size_t>(behavior)];
}

const CsrMatrix& MultiBehaviorGraph::ItemUser(int64_t behavior) const {
  GNMR_CHECK(behavior >= 0 && behavior < num_behaviors_);
  return item_user_[static_cast<size_t>(behavior)];
}

std::vector<int64_t> MultiBehaviorGraph::ItemsOf(int64_t user,
                                                 int64_t behavior) const {
  const CsrMatrix& m = UserItem(behavior);
  GNMR_CHECK(user >= 0 && user < num_users_);
  std::vector<int64_t> out;
  for (int64_t p = m.row_ptr()[static_cast<size_t>(user)];
       p < m.row_ptr()[static_cast<size_t>(user) + 1]; ++p) {
    out.push_back(m.col_idx()[static_cast<size_t>(p)]);
  }
  return out;
}

std::vector<int64_t> MultiBehaviorGraph::UsersOf(int64_t item,
                                                 int64_t behavior) const {
  const CsrMatrix& m = ItemUser(behavior);
  GNMR_CHECK(item >= 0 && item < num_items_);
  std::vector<int64_t> out;
  for (int64_t p = m.row_ptr()[static_cast<size_t>(item)];
       p < m.row_ptr()[static_cast<size_t>(item) + 1]; ++p) {
    out.push_back(m.col_idx()[static_cast<size_t>(p)]);
  }
  return out;
}

bool MultiBehaviorGraph::HasEdge(int64_t user, int64_t item,
                                 int64_t behavior) const {
  const CsrMatrix& m = UserItem(behavior);
  GNMR_CHECK(user >= 0 && user < num_users_);
  GNMR_CHECK(item >= 0 && item < num_items_);
  auto begin = m.col_idx().begin() + m.row_ptr()[static_cast<size_t>(user)];
  auto end = m.col_idx().begin() + m.row_ptr()[static_cast<size_t>(user) + 1];
  return std::binary_search(begin, end, item);
}

int64_t MultiBehaviorGraph::UserDegree(int64_t user, int64_t behavior) const {
  return UserItem(behavior).RowNnz(user);
}

int64_t MultiBehaviorGraph::ItemDegree(int64_t item, int64_t behavior) const {
  return ItemUser(behavior).RowNnz(item);
}

tensor::CsrMatrix MultiBehaviorGraph::BuildUnified(int64_t behavior,
                                                   NeighborNorm norm) const {
  const CsrMatrix* ui;
  const CsrMatrix* iu;
  if (behavior >= 0) {
    ui = &UserItem(behavior);
    iu = &ItemUser(behavior);
  } else {  // merged graph sentinel
    ui = &merged_user_item_;
    // The merged transpose is computed on the fly (cached by the caller).
    static thread_local CsrMatrix merged_t;
    merged_t = merged_user_item_.Transposed();
    iu = &merged_t;
  }
  std::vector<Coo> entries;
  entries.reserve(static_cast<size_t>(2 * ui->nnz()));
  auto degree_of = [&](bool user_side, int64_t idx) -> int64_t {
    return user_side ? ui->RowNnz(idx) : iu->RowNnz(idx);
  };
  auto edge_value = [&](int64_t row_deg, int64_t col_deg) -> float {
    switch (norm) {
      case NeighborNorm::kSum:
        return 1.0f;
      case NeighborNorm::kMean:
        return row_deg > 0 ? 1.0f / static_cast<float>(row_deg) : 0.0f;
      case NeighborNorm::kSqrtDegree:
        return (row_deg > 0 && col_deg > 0)
                   ? 1.0f / std::sqrt(static_cast<float>(row_deg) *
                                      static_cast<float>(col_deg))
                   : 0.0f;
    }
    return 1.0f;
  };
  // User rows: neighbors are items (offset by num_users_).
  for (int64_t u = 0; u < num_users_; ++u) {
    int64_t du = degree_of(true, u);
    for (int64_t p = ui->row_ptr()[static_cast<size_t>(u)];
         p < ui->row_ptr()[static_cast<size_t>(u) + 1]; ++p) {
      int64_t v = ui->col_idx()[static_cast<size_t>(p)];
      entries.push_back(
          {u, num_users_ + v, edge_value(du, degree_of(false, v))});
    }
  }
  // Item rows: neighbors are users.
  for (int64_t v = 0; v < num_items_; ++v) {
    int64_t dv = degree_of(false, v);
    for (int64_t p = iu->row_ptr()[static_cast<size_t>(v)];
         p < iu->row_ptr()[static_cast<size_t>(v) + 1]; ++p) {
      int64_t u = iu->col_idx()[static_cast<size_t>(p)];
      entries.push_back(
          {num_users_ + v, u, edge_value(dv, degree_of(true, u))});
    }
  }
  return CsrMatrix::FromCoo(num_nodes(), num_nodes(), entries);
}

const SparseOp* MultiBehaviorGraph::UnifiedAdjacency(int64_t behavior,
                                                     NeighborNorm norm) const {
  GNMR_CHECK(behavior >= 0 && behavior < num_behaviors_);
  auto key = std::make_pair(behavior, static_cast<int>(norm));
  auto it = unified_cache_.find(key);
  if (it == unified_cache_.end()) {
    auto op = std::make_unique<SparseOp>();
    op->forward = BuildUnified(behavior, norm);
    op->backward = op->forward.Transposed();
    it = unified_cache_.emplace(key, std::move(op)).first;
  }
  return it->second.get();
}

std::vector<const SparseOp*> MultiBehaviorGraph::UnifiedAdjacencies(
    NeighborNorm norm) const {
  std::vector<const SparseOp*> out;
  out.reserve(static_cast<size_t>(num_behaviors_));
  for (int64_t k = 0; k < num_behaviors_; ++k) {
    out.push_back(UnifiedAdjacency(k, norm));
  }
  return out;
}

const SparseOp* MultiBehaviorGraph::MergedAdjacency(NeighborNorm norm) const {
  int key = static_cast<int>(norm);
  auto it = merged_cache_.find(key);
  if (it == merged_cache_.end()) {
    auto op = std::make_unique<SparseOp>();
    op->forward = BuildUnified(-1, norm);
    op->backward = op->forward.Transposed();
    it = merged_cache_.emplace(key, std::move(op)).first;
  }
  return it->second.get();
}

void MultiBehaviorGraph::CheckInvariants() const {
  for (int64_t k = 0; k < num_behaviors_; ++k) {
    user_item_[static_cast<size_t>(k)].CheckInvariants();
    item_user_[static_cast<size_t>(k)].CheckInvariants();
    GNMR_CHECK_EQ(user_item_[static_cast<size_t>(k)].nnz(),
                  item_user_[static_cast<size_t>(k)].nnz());
  }
  merged_user_item_.CheckInvariants();
}

}  // namespace graph
}  // namespace gnmr
