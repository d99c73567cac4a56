// Recall harness for approximate retrieval strategies: how much of the
// exact top-k does an index-based retriever recover? This is the number
// that turns "the graph index seems fine" into a measured quality/cost
// trade-off — tests pin it, and bench/serve_throughput logs it next to
// the speedup it buys.
#ifndef GNMR_EVAL_RETRIEVAL_RECALL_H_
#define GNMR_EVAL_RETRIEVAL_RECALL_H_

#include <cstdint>
#include <vector>

#include "src/serve/retriever.h"

namespace gnmr {
namespace eval {

/// Mean over `users` of |top-k(exact) ∩ top-k(approx)| / |top-k(exact)|,
/// comparing item ids only (both retrievers rank by the same score, so id
/// overlap is the whole story). Users whose exact list is empty (fully
/// seen-filtered catalogue slice) are skipped; returns 1.0 when every
/// evaluated list matches or no user was evaluable. Both retrievers must
/// serve the same catalogue. Deterministic; cost is one RetrieveBatch per
/// retriever.
double RetrievalRecallAtK(const serve::Retriever& exact,
                          const serve::Retriever& approx,
                          const std::vector<int64_t>& users, int64_t k);

}  // namespace eval
}  // namespace gnmr

#endif  // GNMR_EVAL_RETRIEVAL_RECALL_H_
