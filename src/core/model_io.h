// Serving-oriented model persistence. Training happens offline; what a
// serving path needs is the multi-order node embeddings (the inference
// cache) plus enough metadata to validate compatibility. This module
// writes/reads that state in a self-describing binary format.
//
// Artifact versions:
//   v1 ("GNMRSM01") — header (num_users, num_items, width) + row-major
//     float32 embeddings. Written when the model carries no index; every
//     v1 file ever written keeps loading unchanged.
//   v2 ("GNMRSM02") — the v1 payload followed by an IVF index section:
//     nlist, the [nlist, width] centroid tensor, and CSR item-to-cluster
//     posting lists (offsets + item ids, ascending within each cluster).
//     Written when the model carries an index (see BuildIvfIndex).
//   v3 ("GNMRSM03") — fixed-layout, alignment-friendly container designed
//     for zero-copy loading: magic + int64 header (num_users, num_items,
//     width, section_count) + a section table of (id, offset, length,
//     crc32) entries + the section payloads, each starting at a 64-byte-
//     aligned file offset. Sections: 1 = embeddings, and — when the model
//     carries an index — 2 = IVF centroids, 3 = IVF list offsets,
//     4 = IVF list items, in that order. Because mmap bases are page-
//     aligned, 64-byte file alignment gives 64-byte memory alignment, so
//     LoadServingModelMapped can construct every tensor as a view
//     straight over the mapping (see tensor/storage.h) with O(1) load
//     time. Written by SaveServingModelV3.
//   v4 ("GNMRSM04") — the v3 container with two more sections when the
//     IVF index carries quantized codes (BuildIvfIndex(..., quantize =
//     true)): 5 = int8 posting-list codes ([num_items, width], posting-
//     list position order), 6 = per-row float scales (num_items entries,
//     same order). Same table layout, alignment, checksum and zero-copy
//     rules as v3; section_count is exactly 6. Written by
//     SaveServingModelV3 (which picks the magic from has_codes), and by
//     SaveServingModel when codes are present (quantized state has no
//     v1/v2 encoding).
//   v5 ("GNMRSM05") — the v3/v4 container with three more sections when
//     the model carries an HNSW graph (BuildHnswIndex): 7 = graph metadata
//     (int64[4]: m, ef_construction, entry_point, num_levels), 8 = the
//     per-level CSR neighbor offsets (num_levels * (num_items + 1) int64
//     entries; level l's row for item i sits at l * (num_items + 1) + i,
//     and offsets are monotone across the whole array), 9 = the
//     concatenated neighbor item ids those offsets index. The IVF/code
//     sections 2-6 remain optional and keep their v3/v4 rules, so a v5
//     file holds sections {1,7,8,9}, {1..4,7,8,9} or {1..6,7,8,9}, always
//     in ascending id order. Same alignment, checksum and zero-copy rules;
//     written by SaveServingModelV3 (magic from has_hnsw/has_codes) and by
//     SaveServingModel when a graph is present (no v1/v2 encoding).
#ifndef GNMR_CORE_MODEL_IO_H_
#define GNMR_CORE_MODEL_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/gnmr_model.h"
#include "src/tensor/storage.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"

namespace gnmr {
namespace core {

/// Inverted-file index over the item embedding rows: items are clustered
/// offline (deterministic k-means, tensor/kmeans.h) and the serving path
/// scans only the posting lists of the clusters nearest a user's query
/// vector. Immutable once attached to a ServingModel.
struct IvfIndex {
  /// [nlist, width] cluster centers in the item embedding space.
  tensor::Tensor centroids;
  /// list_offsets[c] .. list_offsets[c+1] delimits cluster c's slice of
  /// list_items; size nlist + 1, list_offsets[nlist] == num_items.
  /// Storage so a mapped artifact can expose the lists as views.
  tensor::Storage<int64_t> list_offsets;
  /// Item ids grouped by cluster, ascending within each cluster; every
  /// catalogue item appears exactly once.
  tensor::Storage<int64_t> list_items;
  /// Optional quantized scan tier (tensor/quantize.h): [num_items, width]
  /// int8 codes in POSTING-LIST POSITION order — codes[pos * width ..)
  /// quantizes the embedding row of item list_items[pos] — so the code
  /// scan streams each probed list contiguously. Empty when the index was
  /// built without quantization.
  tensor::Storage<int8_t> codes;
  /// Per-row dequantization scales, same posting-list position order as
  /// `codes` (num_items entries). scale 0 marks an all-zero row.
  tensor::Storage<float> code_scales;

  int64_t nlist() const {
    return list_offsets.empty()
               ? 0
               : static_cast<int64_t>(list_offsets.size()) - 1;
  }
  int64_t ListSize(int64_t c) const {
    return list_offsets[static_cast<size_t>(c) + 1] -
           list_offsets[static_cast<size_t>(c)];
  }
  bool has_codes() const { return !codes.empty(); }

  /// Aborts unless the index is structurally sound for a catalogue of
  /// `num_items` items with `width`-dim embeddings: monotone offsets
  /// covering exactly one entry per item, in-range ascending items per
  /// list, matching centroid shape.
  void CheckConsistent(int64_t num_items, int64_t width) const;
};

/// Hierarchical navigable-small-world graph over the item embedding rows
/// (serve::HnswRetriever walks it greedily instead of scanning posting
/// lists). Levels are assigned per item by a fixed-seed hash
/// (tensor::kHnswLevelSeed), so the same catalogue always produces the
/// same layer structure; neighbors are selected by the heuristic prune
/// with all distances computed through the backend scan ops, making the
/// whole graph bit-identical on every backend. Immutable once attached.
struct HnswIndex {
  /// Max neighbors per node on levels >= 1; level 0 keeps up to 2*m.
  int64_t m = 0;
  /// Construction beam width the graph was built with (provenance only —
  /// search quality is set per request by ef_search).
  int64_t ef_construction = 0;
  /// Item id the layered descent starts from (a node of the top level).
  int64_t entry_point = 0;
  /// Number of graph layers; level 0 holds every item.
  int64_t num_levels = 0;
  /// Per-level CSR offsets into `neighbors`, num_levels * (num_items + 1)
  /// entries: level l's slice for item i is neighbors[o .. o') with
  /// o = neighbor_offsets[l * (num_items + 1) + i]. Offsets are monotone
  /// across the whole array (level l's last offset equals level l+1's
  /// first), items absent from a level simply have an empty slice.
  /// Storage so a mapped artifact can expose the graph as views.
  tensor::Storage<int64_t> neighbor_offsets;
  /// Concatenated neighbor item ids, ascending within each node's slice.
  tensor::Storage<int64_t> neighbors;

  /// Begin offset of item `i`'s neighbor slice at `level`.
  int64_t SliceBegin(int64_t level, int64_t num_items, int64_t i) const {
    return neighbor_offsets[static_cast<size_t>(level * (num_items + 1) + i)];
  }

  /// Aborts unless the graph is structurally sound for a catalogue of
  /// `num_items` items: positive m/num_levels, entry point in range,
  /// monotone offsets covering `neighbors` exactly, in-range ascending
  /// neighbor ids with no self-edges, per-level degree caps respected.
  void CheckConsistent(int64_t num_items) const;
};

/// The deployable scoring artifact: multi-order embeddings + shape info,
/// optionally carrying an IVF index for approximate retrieval.
struct ServingModel {
  int64_t num_users = 0;
  int64_t num_items = 0;
  /// [num_users + num_items, width] multi-order embeddings.
  tensor::Tensor embeddings;
  /// Optional IVF index over the item rows; null = exact retrieval only.
  /// Shared so snapshot copies (hot-swap double buffering) stay O(1).
  std::shared_ptr<const IvfIndex> ivf;
  /// Optional HNSW graph over the item rows (core::BuildHnswIndex); may
  /// coexist with the IVF index — each retrieval strategy reads its own.
  std::shared_ptr<const HnswIndex> hnsw;
  /// Non-null when the model was opened via LoadServingModelMapped: the
  /// tensors above are views over this mapping. Each view also holds the
  /// mapping as its keepalive, so the memory stays valid for as long as
  /// any tensor copy lives — this member makes the backing explicit and
  /// queryable (e.g. for serving diagnostics).
  std::shared_ptr<const util::MappedFile> storage_file;

  bool has_ivf() const { return ivf != nullptr; }
  bool has_hnsw() const { return hnsw != nullptr; }
  bool is_mapped() const { return storage_file != nullptr; }

  /// Dot-product score; user/item must be in range.
  float Score(int64_t user, int64_t item) const;

  /// eval::Scorer adapter that BORROWS this object: the scorer must not
  /// outlive it, and this ServingModel must not be moved-from (or
  /// reassigned) while the scorer is in use — either invalidates the
  /// borrowed embeddings and is undefined behavior. For scorers that must
  /// survive independently (serving hot-swap, background evaluation), put
  /// the model in a shared_ptr and use MakeSharedScorer below.
  std::unique_ptr<eval::Scorer> MakeScorer() const;
};

/// eval::Scorer that shares ownership of `model`: valid even after every
/// other handle to the model is dropped. `model` must be non-null.
std::unique_ptr<eval::Scorer> MakeSharedScorer(
    std::shared_ptr<const ServingModel> model);

/// Snapshots a trained model's inference cache into a ServingModel.
/// The model must have a fresh inference cache.
ServingModel ExportServingModel(const GnmrModel& model);

/// Clusters the item embedding rows into `nlist` posting lists
/// (deterministic k-means through the active kernel backend) and attaches
/// the index to `model`. nlist <= 0 picks tensor::kIvfDefaultNlist; the
/// value is clamped to the catalogue size. The model must be consistent
/// (embeddings covering num_users + num_items rows). Replaces any index
/// already attached. Offline cost: O(max_iters * num_items * nlist * width).
///
/// quantize = true additionally stores symmetric per-row int8 codes of the
/// posting-list item rows (tensor/quantize.h) so IvfRetriever can run its
/// two-phase quantized scan. Always quantizes when asked — the
/// tensor::kIvfQuantizeMinItems threshold is deployment policy applied by
/// the serving frontends, not by this builder.
util::Status BuildIvfIndex(ServingModel* model, int64_t nlist,
                           bool quantize = false);

/// Builds the HNSW graph over the item embedding rows and attaches it to
/// `model` (replacing any graph already attached; an IVF index on the same
/// model is untouched). m <= 0 picks tensor::kHnswDefaultM,
/// ef_construction <= 0 tensor::kHnswDefaultEfConstruction (both floored
/// at 1 / m respectively after defaulting). The model must be consistent.
///
/// Deterministic by construction: levels come from the fixed-seed per-item
/// hash, items are inserted in a hash-shuffled order (a second pass over
/// the same per-item hash, ties by ascending id — a pure function of the
/// ids, so every insertion prefix is a uniform sample of the catalogue),
/// every candidate distance is a KernelBackend::QueryDotIndexed score
/// (bit-identical on all backends) ranked under the serving (score desc,
/// id asc) total order, and the heuristic prune breaks its ties the same
/// way — so the same embeddings yield the byte-identical graph on every
/// backend, run to run. Offline cost: O(num_items * ef_construction * m * width).
util::Status BuildHnswIndex(ServingModel* model, int64_t m,
                            int64_t ef_construction);

/// Binary format: see the version notes at the top of this header. Writes
/// v1 when `model` has no IVF index (bit-compatible with old readers) and
/// v2 when it has one. Quantized codes have no v1/v2 encoding, so a model
/// whose index carries codes delegates to the v3/v4 container writer.
util::Status SaveServingModel(const ServingModel& model,
                              const std::string& path);

/// Writes the v3 zero-copy container (see the version notes above), with
/// a CRC32 checksum per section — v4 magic and the two code sections when
/// the index is quantized. Readers of every version accept it via
/// LoadServingModel; LoadServingModelMapped serves it without copying.
util::Status SaveServingModelV3(const ServingModel& model,
                                const std::string& path);

/// Loads a model written by SaveServingModel or SaveServingModelV3 into
/// owned heap storage; validates header, sizes, the structural invariants
/// of the index, and — for v3 — every section checksum.
util::Result<ServingModel> LoadServingModel(const std::string& path);

/// Opens a v3 artifact zero-copy: the file is mmap'ed once and every
/// tensor is constructed as a read-only view over the mapping, which is
/// kept alive by the returned model (and by every copy of its tensors).
/// Load time is O(1) in the embedding-table size — pages fault in on
/// first touch and are shared read-only across processes.
///
/// Section checksums are NOT verified by default (verifying would touch
/// every page and defeat the O(1) load); pass verify_checksums = true to
/// pay one sequential read for the integrity check, or load through
/// LoadServingModel which always verifies. Structural validation of the
/// header, section table and IVF posting lists always runs.
///
/// v1/v2 artifacts are accepted and silently fall back to the owned-
/// storage loader (check is_mapped() on the result).
util::Result<ServingModel> LoadServingModelMapped(
    const std::string& path, bool verify_checksums = false);

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_MODEL_IO_H_
