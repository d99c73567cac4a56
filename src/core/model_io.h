// Serving-oriented model persistence. Training happens offline; what a
// serving path needs is the multi-order node embeddings (the inference
// cache) plus enough metadata to validate compatibility. This module
// writes and reads that state in one self-describing binary container,
// and does nothing else: the index builder core::BuildHnswIndex lives next
// to the retriever that reads its output (serve/hnsw_retriever.h).
//
// The container: the magic "GNMRSM03", an int64 header (num_users,
// num_items, width, section_count), a section table of (id, offset,
// length, crc32) entries, then the section payloads, each starting at a
// 64-byte-aligned file offset; the alignment gaps are zero bytes (checked
// on load, since no checksum covers them). Because mmap bases are
// page-aligned, that gives 64-byte memory alignment, so
// LoadServingModelMapped constructs every tensor as a view straight over
// the mapping (see tensor/storage.h) with O(1) load time. Section ids, always in ascending order:
//   1    embeddings, [num_users + num_items, width] float32 (required)
//   2-6  retired: an inverted-file index and its int8 code tier, written
//        by earlier builds; a file carrying any of them gets a ParseError
//        that asks for a re-save
//   7-9  HNSW graph: int64[4] meta {m, ef_construction, entry_point,
//        num_levels}, num_levels * (num_items + 1) int64 per-level CSR
//        offsets (level l's row for item i at l * (num_items + 1) + i,
//        monotone across the whole array), the concatenated neighbor ids
//        (all three or none)
// Section presence defines the content, not the magic: earlier builds
// wrote "GNMRSM04" (codes present) and "GNMRSM05" (graph present) for the
// same layout, and both still load when they carry no retired section. The streamed "GNMRSM01"/"GNMRSM02"
// formats are retired; loading one returns a ParseError that asks for a
// re-save.
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

/// Hierarchical navigable-small-world graph over the item embedding rows
/// (serve::HnswRetriever walks it greedily instead of scanning the
/// catalogue). Levels are assigned per item by a fixed-seed hash
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
/// optionally carrying an HNSW graph for approximate retrieval.
struct ServingModel {
  int64_t num_users = 0;
  int64_t num_items = 0;
  /// [num_users + num_items, width] multi-order embeddings.
  tensor::Tensor embeddings;
  /// Optional HNSW graph over the item rows (core::BuildHnswIndex); null =
  /// exact retrieval only. Shared so snapshot copies (hot-swap double
  /// buffering) stay O(1).
  std::shared_ptr<const HnswIndex> hnsw;
  /// Non-null when the model was opened via LoadServingModelMapped: the
  /// tensors above are views over this mapping. Each view also holds the
  /// mapping as its keepalive, so the memory stays valid for as long as
  /// any tensor copy lives — this member makes the backing explicit and
  /// queryable (e.g. for serving diagnostics).
  std::shared_ptr<const util::MappedFile> storage_file;

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

/// Writes the container (see the notes at the top of this header) with a
/// CRC32 checksum per section; the HNSW sections are present when `model`
/// carries a graph. A graph-less model's file is the embeddings section
/// alone.
util::Status SaveServingModel(const ServingModel& model,
                              const std::string& path);

/// Same as SaveServingModel. Kept under this name because the repo
/// benchmark (perfbench/) calls it, and that directory is held fixed so
/// benchmark runs stay comparable across changes.
util::Status SaveServingModelV3(const ServingModel& model,
                                const std::string& path);

/// Loads an artifact into owned heap storage: maps the file, validates
/// the header, the section table, sizes and padding, every section
/// checksum and the structural invariants of the graph, then copies every
/// section.
util::Result<ServingModel> LoadServingModel(const std::string& path);

/// Opens an artifact zero-copy: the file is mmap'ed once and every
/// tensor is constructed as a read-only view over the mapping, which is
/// kept alive by the returned model (and by every copy of its tensors).
/// Load time is O(1) in the embedding-table size — pages fault in on
/// first touch and are shared read-only across processes.
///
/// Runs the same parse as LoadServingModel without the copy. Section
/// checksums are NOT verified by default (verifying would touch every
/// page and defeat the O(1) load); pass verify_checksums = true to pay
/// one sequential read for the integrity check. Structural validation of
/// the header, section table, padding and graph always runs.
util::Result<ServingModel> LoadServingModelMapped(
    const std::string& path, bool verify_checksums = false);

}  // namespace core
}  // namespace gnmr

#endif  // GNMR_CORE_MODEL_IO_H_
