#include "src/core/model_io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace gnmr {
namespace core {

namespace {

// The magic every artifact is written with. Earlier builds also wrote
// "GNMRSM04" and "GNMRSM05" for the same container; the parser accepts all
// three and reads the content from the section table alone.
constexpr char kMagic[8] = {'G', 'N', 'M', 'R', 'S', 'M', '0', '3'};
constexpr size_t kMagicBytes = sizeof(kMagic);

// Container layout constants. Payload sections start at 64-byte-aligned
// file offsets so that, under a page-aligned mmap base, every tensor view
// is 64-byte-aligned in memory (cache-line / SIMD friendly).
constexpr int64_t kAlign = 64;
constexpr int64_t kHeaderBytes = 8 + 4 * 8;  // magic + 4 int64 fields
constexpr int64_t kEntryBytes = 4 * 8;       // id, offset, length, crc

// Section ids, in their mandatory file order.
constexpr int64_t kSecEmbeddings = 1;
constexpr int64_t kSecIvfCentroids = 2;
constexpr int64_t kSecIvfOffsets = 3;
constexpr int64_t kSecIvfItems = 4;
// The quantized scan tier (posting-list position order).
constexpr int64_t kSecIvfCodes = 5;
constexpr int64_t kSecIvfScales = 6;
// The HNSW graph tier (meta, per-level CSR offsets, neighbors).
constexpr int64_t kSecHnswMeta = 7;
constexpr int64_t kSecHnswOffsets = 8;
constexpr int64_t kSecHnswNeighbors = 9;
constexpr int64_t kSecMaxId = 9;
// The meta section's int64 payload: {m, ef_construction, entry_point,
// num_levels}.
constexpr int64_t kHnswMetaFields = 4;

int64_t AlignUp64(int64_t offset) {
  return (offset + kAlign - 1) / kAlign * kAlign;
}

// a * b * elem_bytes for non-negative a, b and positive elem_bytes, or -1
// when the product exceeds `limit`. Every section lies inside the file, so
// a header field whose size product exceeds the file size is corrupt;
// testing by division keeps the arithmetic itself from overflowing.
int64_t BytesWithin(int64_t a, int64_t b, int64_t elem_bytes, int64_t limit) {
  if (b > limit / elem_bytes) return -1;
  const int64_t row_bytes = b * elem_bytes;
  if (row_bytes != 0 && a > limit / row_bytes) return -1;
  return a * row_bytes;
}

struct SectionEntry {
  int64_t id = 0;
  int64_t offset = 0;
  int64_t length = 0;
  int64_t crc = 0;  // CRC32 of the payload bytes, in the low 32 bits
};

// Borrowing adapter: `keepalive` is null for MakeScorer() (caller
// guarantees the model outlives the scorer) and owns the model for
// MakeSharedScorer().
class ServingScorer : public eval::Scorer {
 public:
  ServingScorer(const ServingModel* model,
                std::shared_ptr<const ServingModel> keepalive)
      : model_(model), keepalive_(std::move(keepalive)) {}
  void ScoreItems(int64_t user, const std::vector<int64_t>& items,
                  float* out) override {
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = model_->Score(user, items[i]);
    }
  }

 private:
  const ServingModel* model_;
  std::shared_ptr<const ServingModel> keepalive_;
};

// One section's payload as Storage<T>: an owned copy, or a view that
// `keepalive` (the mapping) anchors.
template <typename T>
tensor::Storage<T> SectionStorage(
    const uint8_t* base, const SectionEntry& e, bool copy_into_owned,
    const std::shared_ptr<const util::MappedFile>& keepalive) {
  const T* p = reinterpret_cast<const T*>(base + e.offset);
  const int64_t n = e.length / static_cast<int64_t>(sizeof(T));
  if (copy_into_owned) return tensor::Storage<T>(std::vector<T>(p, p + n));
  return tensor::Storage<T>::View(p, n, keepalive);
}

template <typename T>
void WritePod(std::ofstream& out, const T* data, size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

// Structural validation shared by LoadServingModel and CheckConsistent;
// returns a message ("" = sound) instead of aborting so the loader can
// surface a ParseError for a corrupt file.
std::string IvfProblem(const IvfIndex& ivf, int64_t num_items,
                       int64_t width) {
  const int64_t nlist = ivf.nlist();
  if (nlist < 1) return "ivf index has no lists";
  if (ivf.centroids.rank() != 2 || ivf.centroids.rows() != nlist ||
      ivf.centroids.cols() != width) {
    return "ivf centroid shape mismatch";
  }
  if (static_cast<int64_t>(ivf.list_items.size()) != num_items) {
    return "ivf posting lists do not cover the catalogue";
  }
  if (ivf.list_offsets.front() != 0 || ivf.list_offsets.back() != num_items) {
    return "ivf offsets do not span [0, num_items]";
  }
  std::vector<bool> seen(static_cast<size_t>(num_items), false);
  for (int64_t c = 0; c < nlist; ++c) {
    const int64_t begin = ivf.list_offsets[static_cast<size_t>(c)];
    const int64_t end = ivf.list_offsets[static_cast<size_t>(c) + 1];
    if (begin > end) return "ivf offsets not monotone";
    // Bound every offset BEFORE walking the list: front()/back() checks
    // alone would let a corrupt intermediate offset index list_items far
    // out of bounds (heap over-read) instead of surfacing a ParseError.
    if (begin < 0 || end > num_items) return "ivf offset out of range";
    for (int64_t p = begin; p < end; ++p) {
      const int64_t item = ivf.list_items[static_cast<size_t>(p)];
      if (item < 0 || item >= num_items) return "ivf item out of range";
      if (seen[static_cast<size_t>(item)]) return "ivf item duplicated";
      seen[static_cast<size_t>(item)] = true;
      if (p > begin && ivf.list_items[static_cast<size_t>(p) - 1] >= item) {
        return "ivf posting list not ascending";
      }
    }
  }
  // Quantized tier: codes and scales travel together, sized for one
  // width-wide code row (plus one scale) per posting-list position.
  const int64_t num_codes = static_cast<int64_t>(ivf.codes.size());
  const int64_t num_scales = static_cast<int64_t>(ivf.code_scales.size());
  if ((num_codes == 0) != (num_scales == 0)) {
    return "ivf codes and scales must be present together";
  }
  if (num_codes != 0) {
    if (num_codes != num_items * width) return "ivf code size mismatch";
    if (num_scales != num_items) return "ivf scale count mismatch";
  }
  return "";
}

// Structural validation of the HNSW graph, mirroring IvfProblem: returns
// a message ("" = sound) so the loader can surface a ParseError for a
// corrupt neighbor section instead of aborting.
std::string HnswProblem(const HnswIndex& hnsw, int64_t num_items) {
  // The level-0 cap is 2 * m, so m must leave room to double.
  if (hnsw.m < 1 || hnsw.m > std::numeric_limits<int64_t>::max() / 2) {
    return "hnsw m invalid";
  }
  if (hnsw.ef_construction < 1) return "hnsw ef_construction invalid";
  if (hnsw.num_levels < 1 ||
      hnsw.num_levels > tensor::kHnswMaxLevel + 1) {
    return "hnsw level count out of range";
  }
  if (hnsw.entry_point < 0 || hnsw.entry_point >= num_items) {
    return "hnsw entry point out of range";
  }
  const int64_t stride = num_items + 1;
  if (static_cast<int64_t>(hnsw.neighbor_offsets.size()) !=
      hnsw.num_levels * stride) {
    return "hnsw offset table size mismatch";
  }
  if (hnsw.neighbor_offsets.front() != 0 ||
      hnsw.neighbor_offsets.back() !=
          static_cast<int64_t>(hnsw.neighbors.size())) {
    return "hnsw offsets do not span the neighbor array";
  }
  const int64_t num_edges = static_cast<int64_t>(hnsw.neighbors.size());
  for (int64_t l = 0; l < hnsw.num_levels; ++l) {
    // Level 0 keeps up to 2*m neighbors per node, upper levels m.
    const int64_t cap = l == 0 ? 2 * hnsw.m : hnsw.m;
    const int64_t base = l * stride;
    // Levels must tile the neighbor array back to back: a gap between one
    // level's end and the next level's start would leave edges no offset
    // references (and monotonicity alone would not catch it).
    if (l > 0 && hnsw.neighbor_offsets[static_cast<size_t>(base)] !=
                     hnsw.neighbor_offsets[static_cast<size_t>(base - 1)]) {
      return "hnsw levels not contiguous";
    }
    for (int64_t i = 0; i < num_items; ++i) {
      const int64_t begin =
          hnsw.neighbor_offsets[static_cast<size_t>(base + i)];
      const int64_t end =
          hnsw.neighbor_offsets[static_cast<size_t>(base + i) + 1];
      if (begin > end) return "hnsw offsets not monotone";
      // Bound every offset BEFORE walking the slice (same over-read guard
      // as the IVF lists).
      if (begin < 0 || end > num_edges) return "hnsw offset out of range";
      if (end - begin > cap) return "hnsw degree over cap";
      for (int64_t p = begin; p < end; ++p) {
        const int64_t nb = hnsw.neighbors[static_cast<size_t>(p)];
        if (nb < 0 || nb >= num_items) return "hnsw neighbor out of range";
        if (nb == i) return "hnsw self edge";
        if (p > begin && hnsw.neighbors[static_cast<size_t>(p) - 1] >= nb) {
          return "hnsw neighbor list not ascending";
        }
      }
    }
  }
  return "";
}

// Parses the section container from a contiguous byte range. With
// `copy_into_owned`, tensors are deep-copied into heap storage; otherwise
// they are constructed as views with `keepalive` (the mapping) anchoring
// the memory. Structural validation always runs; payload checksums only
// when `verify_checksums` (they touch every byte).
util::Result<ServingModel> ParseContainer(
    const uint8_t* base, int64_t file_size, const std::string& path,
    bool copy_into_owned, bool verify_checksums,
    std::shared_ptr<const util::MappedFile> keepalive) {
  if (file_size < static_cast<int64_t>(kMagicBytes)) {
    return util::Status::ParseError("truncated header in " + path);
  }
  // GNMRSM03, 04 and 05 name the same container. 01 and 02 were a
  // streamed layout with no section table that this build no longer reads.
  const std::string magic(reinterpret_cast<const char*>(base), kMagicBytes);
  if (magic == "GNMRSM01" || magic == "GNMRSM02") {
    return util::Status::ParseError("retired artifact format " + magic +
                                    " in " + path +
                                    "; re-save with this build");
  }
  if (magic != "GNMRSM03" && magic != "GNMRSM04" && magic != "GNMRSM05") {
    return util::Status::ParseError("bad magic in " + path);
  }
  if (file_size < kHeaderBytes) {
    return util::Status::ParseError("truncated header in " + path);
  }
  int64_t header[4];
  std::memcpy(header, base + kMagicBytes, sizeof(header));
  ServingModel model;
  model.num_users = header[0];
  model.num_items = header[1];
  const int64_t width = header[2];
  const int64_t section_count = header[3];
  if (model.num_users <= 0 || model.num_items <= 0 || width <= 0) {
    return util::Status::ParseError("invalid dimensions in header");
  }
  // Each dimension counts at least one stored byte, so none can exceed
  // the file size; this also keeps num_users + num_items from overflowing.
  if (model.num_users > file_size || model.num_items > file_size ||
      width > file_size) {
    return util::Status::ParseError("dimensions exceed the file size");
  }
  if (section_count < 1 || section_count > kSecMaxId) {
    return util::Status::ParseError("invalid section count");
  }
  const int64_t table_end = kHeaderBytes + section_count * kEntryBytes;
  if (file_size < table_end) {
    return util::Status::ParseError("truncated section table in " + path);
  }
  std::vector<SectionEntry> entries(static_cast<size_t>(section_count));
  std::memcpy(entries.data(), base + kHeaderBytes,
              static_cast<size_t>(section_count * kEntryBytes));

  // The writer lays sections out back-to-back at the next 64-byte-aligned
  // offset, in ascending id order, with nothing after the last one;
  // enforce exactly that, which also rejects trailing bytes. `sec` maps
  // each known id to its entry (null = absent) for the checks below.
  const SectionEntry* sec[kSecMaxId + 1] = {nullptr};
  int64_t expected_offset = AlignUp64(table_end);
  int64_t prev_id = 0;
  for (int64_t i = 0; i < section_count; ++i) {
    const SectionEntry& e = entries[static_cast<size_t>(i)];
    if (e.id <= prev_id || e.id > kSecMaxId) {
      return util::Status::ParseError("unexpected section id");
    }
    prev_id = e.id;
    sec[e.id] = &e;
    if (e.length < 0 || e.offset != expected_offset ||
        e.offset > file_size - e.length) {
      return util::Status::ParseError("section out of bounds");
    }
    if (e.crc < 0 || e.crc > 0xFFFFFFFFll) {
      return util::Status::ParseError("invalid section crc");
    }
    expected_offset = AlignUp64(e.offset + e.length);
  }
  const SectionEntry& last = entries.back();
  if (last.offset + last.length != file_size) {
    return util::Status::ParseError("trailing bytes in " + path);
  }

  // Section presence defines the content: embeddings always, IVF as all
  // three sections or none, codes as both or neither (and only on top of
  // IVF), HNSW as all three or none.
  const bool has_ivf_secs = sec[kSecIvfCentroids] != nullptr;
  const bool has_code_secs = sec[kSecIvfCodes] != nullptr;
  const bool has_hnsw_secs = sec[kSecHnswMeta] != nullptr;
  if (sec[kSecEmbeddings] == nullptr ||
      has_ivf_secs != (sec[kSecIvfOffsets] != nullptr) ||
      has_ivf_secs != (sec[kSecIvfItems] != nullptr) ||
      has_code_secs != (sec[kSecIvfScales] != nullptr) ||
      (has_code_secs && !has_ivf_secs) ||
      has_hnsw_secs != (sec[kSecHnswOffsets] != nullptr) ||
      has_hnsw_secs != (sec[kSecHnswNeighbors] != nullptr)) {
    return util::Status::ParseError("incomplete section set");
  }

  constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));
  constexpr int64_t kI64 = static_cast<int64_t>(sizeof(int64_t));
  const int64_t rows = model.num_users + model.num_items;
  if (sec[kSecEmbeddings]->length !=
      BytesWithin(rows, width, kF32, file_size)) {
    return util::Status::ParseError("embeddings size mismatch");
  }
  int64_t nlist = 0;
  if (has_ivf_secs) {
    const SectionEntry& off = *sec[kSecIvfOffsets];
    if (off.length < 2 * kI64 || off.length % kI64 != 0) {
      return util::Status::ParseError("ivf offsets size mismatch");
    }
    nlist = off.length / kI64 - 1;
    if (nlist < 1 || nlist > model.num_items) {
      return util::Status::ParseError("invalid ivf nlist");
    }
    if (sec[kSecIvfCentroids]->length !=
        BytesWithin(nlist, width, kF32, file_size)) {
      return util::Status::ParseError("ivf centroids size mismatch");
    }
    if (sec[kSecIvfItems]->length !=
        BytesWithin(model.num_items, 1, kI64, file_size)) {
      return util::Status::ParseError("ivf items size mismatch");
    }
  }
  if (has_code_secs) {
    if (sec[kSecIvfCodes]->length !=
        BytesWithin(model.num_items, width, 1, file_size)) {
      return util::Status::ParseError("ivf codes size mismatch");
    }
    if (sec[kSecIvfScales]->length !=
        BytesWithin(model.num_items, 1, kF32, file_size)) {
      return util::Status::ParseError("ivf scales size mismatch");
    }
  }
  int64_t hnsw_meta[kHnswMetaFields] = {0, 0, 0, 0};
  if (has_hnsw_secs) {
    if (sec[kSecHnswMeta]->length != kHnswMetaFields * kI64) {
      return util::Status::ParseError("hnsw meta size mismatch");
    }
    std::memcpy(hnsw_meta, base + sec[kSecHnswMeta]->offset,
                sizeof(hnsw_meta));
    const int64_t num_levels = hnsw_meta[3];
    if (num_levels < 1 || num_levels > tensor::kHnswMaxLevel + 1) {
      return util::Status::ParseError("invalid hnsw level count");
    }
    if (sec[kSecHnswOffsets]->length !=
        BytesWithin(num_levels, model.num_items + 1, kI64, file_size)) {
      return util::Status::ParseError("hnsw offsets size mismatch");
    }
    if (sec[kSecHnswNeighbors]->length % kI64 != 0) {
      return util::Status::ParseError("hnsw neighbors size mismatch");
    }
  }

  if (verify_checksums) {
    for (const SectionEntry& e : entries) {
      const uint32_t got =
          util::Crc32(base + e.offset, static_cast<size_t>(e.length));
      if (got != static_cast<uint32_t>(e.crc)) {
        return util::Status::ParseError(
            "checksum mismatch in section " + std::to_string(e.id) + " of " +
            path);
      }
    }
  }

  const auto float_view = [&](const SectionEntry& e,
                              std::vector<int64_t> shape) {
    const float* p = reinterpret_cast<const float*>(base + e.offset);
    if (copy_into_owned) {
      tensor::Tensor t(std::move(shape));
      std::memcpy(t.data(), p, static_cast<size_t>(e.length));
      return t;
    }
    return tensor::Tensor::FromView(std::move(shape), p, keepalive);
  };
  const auto int_view = [&](const SectionEntry& e) {
    return SectionStorage<int64_t>(base, e, copy_into_owned, keepalive);
  };

  model.embeddings = float_view(*sec[kSecEmbeddings], {rows, width});
  if (has_ivf_secs) {
    auto ivf = std::make_shared<IvfIndex>();
    ivf->centroids = float_view(*sec[kSecIvfCentroids], {nlist, width});
    ivf->list_offsets = int_view(*sec[kSecIvfOffsets]);
    ivf->list_items = int_view(*sec[kSecIvfItems]);
    if (has_code_secs) {
      ivf->codes = SectionStorage<int8_t>(base, *sec[kSecIvfCodes],
                                          copy_into_owned, keepalive);
      ivf->code_scales = SectionStorage<float>(base, *sec[kSecIvfScales],
                                               copy_into_owned, keepalive);
    }
    const std::string problem = IvfProblem(*ivf, model.num_items, width);
    if (!problem.empty()) {
      return util::Status::ParseError("corrupt ivf index: " + problem);
    }
    model.ivf = std::move(ivf);
  }
  if (has_hnsw_secs) {
    auto hnsw = std::make_shared<HnswIndex>();
    hnsw->m = hnsw_meta[0];
    hnsw->ef_construction = hnsw_meta[1];
    hnsw->entry_point = hnsw_meta[2];
    hnsw->num_levels = hnsw_meta[3];
    hnsw->neighbor_offsets = int_view(*sec[kSecHnswOffsets]);
    hnsw->neighbors = int_view(*sec[kSecHnswNeighbors]);
    const std::string problem = HnswProblem(*hnsw, model.num_items);
    if (!problem.empty()) {
      return util::Status::ParseError("corrupt hnsw graph: " + problem);
    }
    model.hnsw = std::move(hnsw);
  }
  if (!copy_into_owned) model.storage_file = std::move(keepalive);
  return model;
}

}  // namespace

void IvfIndex::CheckConsistent(int64_t num_items, int64_t width) const {
  const std::string problem = IvfProblem(*this, num_items, width);
  GNMR_CHECK(problem.empty()) << problem;
}

void HnswIndex::CheckConsistent(int64_t num_items) const {
  const std::string problem = HnswProblem(*this, num_items);
  GNMR_CHECK(problem.empty()) << problem;
}

float ServingModel::Score(int64_t user, int64_t item) const {
  GNMR_CHECK(user >= 0 && user < num_users);
  GNMR_CHECK(item >= 0 && item < num_items);
  int64_t width = embeddings.cols();
  const float* u = embeddings.data() + user * width;
  const float* v = embeddings.data() + (num_users + item) * width;
  // The lane-partial association (backend.h) — the same contract every
  // serving scan computes, so single scores match scanned scores
  // bit-for-bit.
  return static_cast<float>(tensor::LanePartialDot(u, v, width));
}

std::unique_ptr<eval::Scorer> ServingModel::MakeScorer() const {
  return std::make_unique<ServingScorer>(this, nullptr);
}

std::unique_ptr<eval::Scorer> MakeSharedScorer(
    std::shared_ptr<const ServingModel> model) {
  GNMR_CHECK(model != nullptr);
  const ServingModel* raw = model.get();
  return std::make_unique<ServingScorer>(raw, std::move(model));
}

ServingModel ExportServingModel(const GnmrModel& model) {
  ServingModel out;
  out.num_users = model.num_users();
  out.num_items = model.num_items();
  out.embeddings = model.inference_cache().Clone();
  return out;
}

util::Status SaveServingModel(const ServingModel& model,
                              const std::string& path) {
  GNMR_TRACE_SPAN("io.save");
  if (model.embeddings.empty() ||
      model.embeddings.rows() != model.num_users + model.num_items) {
    return util::Status::InvalidArgument("inconsistent serving model");
  }
  const int64_t width = model.embeddings.cols();
  if (model.has_ivf()) model.ivf->CheckConsistent(model.num_items, width);
  if (model.has_hnsw()) model.hnsw->CheckConsistent(model.num_items);

  struct Payload {
    int64_t id;
    const void* data;
    int64_t length;
  };
  const tensor::Tensor& emb = model.embeddings;
  std::vector<Payload> payloads = {
      {kSecEmbeddings, std::as_const(emb).data(),
       emb.numel() * static_cast<int64_t>(sizeof(float))}};
  if (model.has_ivf()) {
    const IvfIndex& ivf = *model.ivf;
    payloads.push_back(
        {kSecIvfCentroids, std::as_const(ivf.centroids).data(),
         ivf.centroids.numel() * static_cast<int64_t>(sizeof(float))});
    payloads.push_back(
        {kSecIvfOffsets, ivf.list_offsets.data(),
         ivf.list_offsets.size() * static_cast<int64_t>(sizeof(int64_t))});
    payloads.push_back(
        {kSecIvfItems, ivf.list_items.data(),
         ivf.list_items.size() * static_cast<int64_t>(sizeof(int64_t))});
    if (ivf.has_codes()) {
      payloads.push_back({kSecIvfCodes, ivf.codes.data(),
                          static_cast<int64_t>(ivf.codes.size())});
      payloads.push_back(
          {kSecIvfScales, ivf.code_scales.data(),
           static_cast<int64_t>(ivf.code_scales.size() * sizeof(float))});
    }
  }
  // The meta buffer must outlive the write loop below, so it sits outside
  // the has_hnsw() branch.
  int64_t hnsw_meta[kHnswMetaFields] = {0, 0, 0, 0};
  if (model.has_hnsw()) {
    const HnswIndex& hnsw = *model.hnsw;
    hnsw_meta[0] = hnsw.m;
    hnsw_meta[1] = hnsw.ef_construction;
    hnsw_meta[2] = hnsw.entry_point;
    hnsw_meta[3] = hnsw.num_levels;
    payloads.push_back({kSecHnswMeta, hnsw_meta,
                        kHnswMetaFields *
                            static_cast<int64_t>(sizeof(int64_t))});
    payloads.push_back({kSecHnswOffsets, hnsw.neighbor_offsets.data(),
                        static_cast<int64_t>(hnsw.neighbor_offsets.size() *
                                             sizeof(int64_t))});
    payloads.push_back({kSecHnswNeighbors, hnsw.neighbors.data(),
                        static_cast<int64_t>(hnsw.neighbors.size() *
                                             sizeof(int64_t))});
  }

  const int64_t section_count = static_cast<int64_t>(payloads.size());
  std::vector<SectionEntry> entries;
  int64_t offset = AlignUp64(kHeaderBytes + section_count * kEntryBytes);
  for (const Payload& p : payloads) {
    SectionEntry e;
    e.id = p.id;
    e.offset = offset;
    e.length = p.length;
    e.crc = static_cast<int64_t>(
        util::Crc32(p.data, static_cast<size_t>(p.length)));
    entries.push_back(e);
    offset = AlignUp64(offset + p.length);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return util::Status::IOError("cannot open " + path);
  out.write(kMagic, kMagicBytes);
  int64_t header[4] = {model.num_users, model.num_items, width,
                       section_count};
  WritePod(out, header, 4);
  WritePod(out, entries.data(), entries.size());
  int64_t pos = kHeaderBytes + section_count * kEntryBytes;
  static constexpr char kZeros[kAlign] = {};
  for (size_t i = 0; i < payloads.size(); ++i) {
    const int64_t pad = entries[i].offset - pos;
    GNMR_CHECK(pad >= 0 && pad < kAlign);
    out.write(kZeros, static_cast<std::streamsize>(pad));
    out.write(static_cast<const char*>(payloads[i].data),
              static_cast<std::streamsize>(payloads[i].length));
    pos = entries[i].offset + entries[i].length;
  }
  out.flush();
  if (!out.good()) return util::Status::IOError("write error on " + path);
  return util::Status::OK();
}

util::Status SaveServingModelV3(const ServingModel& model,
                                const std::string& path) {
  return SaveServingModel(model, path);
}

util::Result<ServingModel> LoadServingModel(const std::string& path) {
  GNMR_TRACE_SPAN("io.load");
  // Parsed from the same mapping as the zero-copy path, then deep-copied
  // into owned storage with every section checksum verified; the mapping
  // is released on return.
  auto mapped = util::MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<const util::MappedFile> file =
      std::move(mapped).value();
  return ParseContainer(file->data(), file->size(), path,
                        /*copy_into_owned=*/true, /*verify_checksums=*/true,
                        nullptr);
}

util::Result<ServingModel> LoadServingModelMapped(const std::string& path,
                                                  bool verify_checksums) {
  GNMR_TRACE_SPAN("io.load_mapped");
  auto mapped = util::MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<const util::MappedFile> file = std::move(mapped).value();
  return ParseContainer(file->data(), file->size(), path,
                        /*copy_into_owned=*/false, verify_checksums, file);
}

}  // namespace core
}  // namespace gnmr
