// Tests for serving-model export and binary persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/gnmr_trainer.h"
#include "src/core/model_io.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/hnsw_retriever.h"
#include "src/tensor/backend.h"
#include "src/util/crc32.h"
#include "src/util/csv.h"

namespace gnmr {
namespace core {
namespace {

GnmrTrainer TrainedTrainer() {
  data::Dataset full = data::GenerateSynthetic(data::MovieLensLike(0.1));
  data::TrainTestSplit split = data::LeaveLatestOut(full);
  GnmrConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_channels = 4;
  cfg.epochs = 3;
  cfg.use_pretrain = false;
  GnmrTrainer trainer(cfg, split.train);
  trainer.Train();
  return trainer;
}

TEST(ModelIoTest, ExportMatchesLiveScores) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel serving = ExportServingModel(trainer.model());
  EXPECT_EQ(serving.num_users, trainer.model().num_users());
  EXPECT_EQ(serving.num_items, trainer.model().num_items());
  for (int64_t u = 0; u < 5; ++u) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(serving.Score(u, j), trainer.model().Score(u, j));
    }
  }
}

TEST(ModelIoTest, SaveLoadRoundTrip) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel original = ExportServingModel(trainer.model());
  std::string path = testing::TempDir() + "/gnmr_serving.bin";
  ASSERT_TRUE(SaveServingModel(original, path).ok());
  auto loaded = LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_users, original.num_users);
  EXPECT_EQ(loaded.value().num_items, original.num_items);
  ASSERT_TRUE(
      loaded.value().embeddings.SameShape(original.embeddings));
  for (int64_t i = 0; i < original.embeddings.numel(); ++i) {
    EXPECT_EQ(loaded.value().embeddings.data()[i],
              original.embeddings.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, ScorerAdapterWorks) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel serving = ExportServingModel(trainer.model());
  auto scorer = serving.MakeScorer();
  std::vector<int64_t> items = {0, 1, 2};
  std::vector<float> scores(items.size());
  scorer->ScoreItems(0, items, scores.data());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_FLOAT_EQ(scores[i], serving.Score(0, items[i]));
  }
}

// A file holding only `magic` followed by a pre-container v1 payload: the
// int64 header {2 users, 3 items, width 2} and ten float32 embeddings.
std::string RetiredV1Bytes(const char* magic) {
  std::string bytes(magic, 8);
  const int64_t header[3] = {2, 3, 2};
  bytes.append(reinterpret_cast<const char*>(header), sizeof(header));
  const std::vector<float> emb(10, 0.5f);
  bytes.append(reinterpret_cast<const char*>(emb.data()),
               emb.size() * sizeof(float));
  return bytes;
}

TEST(ModelIoTest, RejectsCorruptFiles) {
  std::string path = testing::TempDir() + "/gnmr_corrupt.bin";
  // Wrong magic.
  ASSERT_TRUE(util::WriteStringToFile(path, "NOTGNMR0withsomebytes").ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path).ok());
  // Truncated file with the container magic; an empty file.
  for (const char* bytes : {"GNMRSM03", "GNMRSM0", ""}) {
    ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
    EXPECT_FALSE(LoadServingModel(path).ok()) << bytes;
    EXPECT_FALSE(LoadServingModelMapped(path).ok()) << bytes;
  }
  // The retired streamed formats: a well-formed v1 payload and the v2
  // magic both get a ParseError that names the format, from both loaders.
  for (const char* magic : {"GNMRSM01", "GNMRSM02"}) {
    ASSERT_TRUE(util::WriteStringToFile(path, RetiredV1Bytes(magic)).ok());
    for (const util::Status& s : {LoadServingModel(path).status(),
                                  LoadServingModelMapped(path).status()}) {
      EXPECT_EQ(s.code(), util::StatusCode::kParseError) << magic;
      EXPECT_NE(s.message().find(std::string("retired artifact format ") +
                                 magic),
                std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("re-save with this build"),
                std::string::npos)
          << s.ToString();
    }
  }
  std::remove(path.c_str());
  // Missing file.
  EXPECT_FALSE(LoadServingModel("/nonexistent/file.bin").ok());
  EXPECT_FALSE(LoadServingModelMapped("/nonexistent/file.bin").ok());
}

TEST(ModelIoTest, RejectsTrailingBytes) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel original = ExportServingModel(trainer.model());
  std::string path = testing::TempDir() + "/gnmr_trailing.bin";
  ASSERT_TRUE(SaveServingModel(original, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(util::WriteStringToFile(path, blob.value() + "junk").ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveRejectsInconsistentModel) {
  ServingModel bad;
  bad.num_users = 3;
  bad.num_items = 3;
  bad.embeddings = tensor::Tensor({4, 2});  // wrong row count
  EXPECT_FALSE(SaveServingModel(bad, testing::TempDir() + "/x.bin").ok());
}

// ---- The container, zero-copy loading, every kind x both loaders -----------

ServingModel TinyModel() {
  ServingModel m;
  m.num_users = 2;
  m.num_items = 3;
  m.embeddings = tensor::Tensor::FromData(
      {5, 4}, {0.5f,  -1.0f, 2.0f,  0.25f, 1.5f,  0.0f,  -0.5f, 3.0f,
               0.1f,  0.2f,  0.3f,  0.4f,  -2.0f, 1.0f,  0.75f, -0.25f,
               4.0f,  -3.0f, 0.125f, 2.5f});
  return m;
}

ServingModel TinyHnswModel() {
  ServingModel m = TinyModel();
  GNMR_CHECK(BuildHnswIndex(&m, 2, 8).ok());
  GNMR_CHECK(m.has_hnsw());
  return m;
}

void ExpectSameModel(const ServingModel& a, const ServingModel& b) {
  ASSERT_EQ(a.num_users, b.num_users);
  ASSERT_EQ(a.num_items, b.num_items);
  ASSERT_TRUE(a.embeddings.SameShape(b.embeddings));
  const float* ad = std::as_const(a).embeddings.data();
  const float* bd = std::as_const(b).embeddings.data();
  for (int64_t i = 0; i < a.embeddings.numel(); ++i) EXPECT_EQ(ad[i], bd[i]);
  ASSERT_EQ(a.has_hnsw(), b.has_hnsw());
  if (a.has_hnsw()) {
    const HnswIndex& ah = *a.hnsw;
    const HnswIndex& bh = *b.hnsw;
    EXPECT_EQ(ah.m, bh.m);
    EXPECT_EQ(ah.ef_construction, bh.ef_construction);
    EXPECT_EQ(ah.entry_point, bh.entry_point);
    ASSERT_EQ(ah.num_levels, bh.num_levels);
    ASSERT_EQ(ah.neighbor_offsets.size(), bh.neighbor_offsets.size());
    for (int64_t i = 0; i < ah.neighbor_offsets.size(); ++i) {
      EXPECT_EQ(ah.neighbor_offsets.data()[i], bh.neighbor_offsets.data()[i]);
    }
    ASSERT_EQ(ah.neighbors.size(), bh.neighbors.size());
    for (int64_t i = 0; i < ah.neighbors.size(); ++i) {
      EXPECT_EQ(ah.neighbors.data()[i], bh.neighbors.data()[i]);
    }
  }
}

TEST(ModelIoV3Test, V3LayoutIsAligned) {
  ServingModel m = TinyModel();
  std::string path = testing::TempDir() + "/gnmr_layout.bin";
  ASSERT_TRUE(SaveServingModel(m, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  const std::string& bytes = blob.value();
  ASSERT_EQ(bytes.substr(0, 8), "GNMRSM03");
  int64_t header[4];
  std::memcpy(header, bytes.data() + 8, sizeof(header));
  EXPECT_EQ(header[0], m.num_users);
  EXPECT_EQ(header[1], m.num_items);
  EXPECT_EQ(header[2], m.embeddings.cols());
  EXPECT_EQ(header[3], 1);  // embeddings only
  int64_t entry[4];         // {id, offset, length, crc}
  std::memcpy(entry, bytes.data() + 8 + sizeof(header), sizeof(entry));
  EXPECT_EQ(entry[0], 1);
  EXPECT_EQ(entry[1] % 64, 0);  // payload 64-byte aligned
  EXPECT_EQ(entry[2], m.embeddings.numel() * static_cast<int64_t>(
                                                  sizeof(float)));
  EXPECT_EQ(static_cast<int64_t>(bytes.size()), entry[1] + entry[2]);
  std::remove(path.c_str());
}

// One writer x every kind of model x both loaders, all bit-identical to
// the in-memory original; every mapped load is zero-copy.
TEST(ModelIoV3Test, RoundTripMatrix) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel plain = ExportServingModel(trainer.model());
  ServingModel graphed = ExportServingModel(trainer.model());
  ASSERT_TRUE(BuildHnswIndex(&graphed, 4, 16).ok());

  const std::pair<const char*, const ServingModel*> cases[] = {
      {"plain", &plain},
      {"hnsw", &graphed},
  };
  for (const auto& [name, model] : cases) {
    SCOPED_TRACE(name);
    std::string path = testing::TempDir() + "/gnmr_matrix.bin";
    ASSERT_TRUE(SaveServingModel(*model, path).ok());
    auto blob = util::ReadFileToString(path);
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(blob.value().substr(0, 8), "GNMRSM03");

    auto heap = LoadServingModel(path);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_FALSE(heap.value().is_mapped());
    EXPECT_TRUE(heap.value().embeddings.owns_storage());
    ExpectSameModel(*model, heap.value());

    auto mapped = LoadServingModelMapped(path, /*verify_checksums=*/true);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped.value().is_mapped());
    EXPECT_FALSE(mapped.value().embeddings.owns_storage());
    ExpectSameModel(*model, mapped.value());
    std::remove(path.c_str());
  }
}

// Earlier builds wrote the same container under "GNMRSM04" (codes present)
// and "GNMRSM05" (graph present). Section presence defines the content, so
// every container magic loads every section set this build reads.
TEST(ModelIoV3Test, EarlierContainerMagicsStillLoad) {
  ServingModel m = TinyHnswModel();
  ServingModel plain = TinyModel();
  std::string path = testing::TempDir() + "/gnmr_relabeled.bin";
  for (const ServingModel* model : {&plain, &m}) {
    ASSERT_TRUE(SaveServingModel(*model, path).ok());
    auto blob = util::ReadFileToString(path);
    ASSERT_TRUE(blob.ok());
    for (char version : {'4', '5'}) {
      std::string relabeled = blob.value();
      relabeled[7] = version;
      ASSERT_TRUE(util::WriteStringToFile(path, relabeled).ok());
      auto heap = LoadServingModel(path);
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      ExpectSameModel(*model, heap.value());
      auto mapped = LoadServingModelMapped(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ExpectSameModel(*model, mapped.value());
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoV3Test, ChecksumCatchesPayloadCorruption) {
  ServingModel m = TinyModel();
  std::string path = testing::TempDir() + "/gnmr_crc_corrupt.bin";
  ASSERT_TRUE(SaveServingModel(m, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  std::string bytes = blob.value();
  bytes[bytes.size() - 1] ^= 0x40;  // flip a bit inside the payload
  ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());

  // The heap loader always verifies checksums; the mapped loader does on
  // request (by default it stays O(1) and validates structure only).
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path, /*verify_checksums=*/true).ok());
  auto lazy = LoadServingModelMapped(path, /*verify_checksums=*/false);
  EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
  std::remove(path.c_str());
}

TEST(ModelIoV3Test, RejectsStructuralDamage) {
  ServingModel m = TinyModel();
  std::string path = testing::TempDir() + "/gnmr_broken.bin";
  ASSERT_TRUE(SaveServingModel(m, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  const std::string& good = blob.value();

  // Trailing junk: the section table says where the file must end.
  ASSERT_TRUE(util::WriteStringToFile(path, good + "junk").ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path).ok());

  // Truncation anywhere — inside the payload, the table, the header.
  for (size_t keep : {good.size() - 5, size_t{60}, size_t{20}}) {
    ASSERT_TRUE(util::WriteStringToFile(path, good.substr(0, keep)).ok());
    EXPECT_FALSE(LoadServingModel(path).ok()) << "keep=" << keep;
    EXPECT_FALSE(LoadServingModelMapped(path).ok()) << "keep=" << keep;
  }

  // A mangled section offset breaks the fixed-layout chain.
  std::string bad_offset = good;
  bad_offset[8 + 4 * 8 + 8] ^= 0x01;  // entry 0's offset field
  ASSERT_TRUE(util::WriteStringToFile(path, bad_offset).ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path).ok());

  // Byte 100 lies in the alignment gap between the 72-byte table and the
  // payload at 128, which no checksum covers: it must read as zero.
  std::string bad_padding = good;
  ASSERT_EQ(bad_padding[100], '\0');
  bad_padding[100] = 0x01;
  ASSERT_TRUE(util::WriteStringToFile(path, bad_padding).ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path).ok());
  std::remove(path.c_str());
}

// ---- Graph sections: HNSW --------------------------------------------------

TEST(ModelIoV5Test, GraphSectionLayout) {
  ServingModel m = TinyHnswModel();
  std::string path = testing::TempDir() + "/gnmr_graph_layout.bin";
  ASSERT_TRUE(SaveServingModel(m, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  const std::string& bytes = blob.value();
  ASSERT_EQ(bytes.substr(0, 8), "GNMRSM03");
  int64_t header[4];
  std::memcpy(header, bytes.data() + 8, sizeof(header));
  EXPECT_EQ(header[0], m.num_users);
  EXPECT_EQ(header[1], m.num_items);
  EXPECT_EQ(header[2], m.embeddings.cols());
  ASSERT_EQ(header[3], 4);  // embeddings + meta + offsets + neighbors
  const int64_t expected_ids[4] = {1, 7, 8, 9};
  for (int64_t e = 0; e < 4; ++e) {
    int64_t entry[4];  // {id, offset, length, crc}
    std::memcpy(entry, bytes.data() + 8 + sizeof(header) + e * sizeof(entry),
                sizeof(entry));
    EXPECT_EQ(entry[0], expected_ids[e]) << "section " << e;
    EXPECT_EQ(entry[1] % 64, 0) << "payload " << e << " not 64-byte aligned";
    if (entry[0] == 7) {
      EXPECT_EQ(entry[2], 4 * static_cast<int64_t>(sizeof(int64_t)));
    }
    if (entry[0] == 8) {
      EXPECT_EQ(entry[2], m.hnsw->num_levels * (m.num_items + 1) *
                              static_cast<int64_t>(sizeof(int64_t)));
    }
    if (entry[0] == 9) {
      EXPECT_EQ(entry[2], m.hnsw->neighbors.size() *
                              static_cast<int64_t>(sizeof(int64_t)));
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoV5Test, RejectsCorruptOrTruncatedNeighborSection) {
  ServingModel m = TinyHnswModel();
  std::string path = testing::TempDir() + "/gnmr_graph_corrupt.bin";
  ASSERT_TRUE(SaveServingModel(m, path).ok());
  auto blob = util::ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  const std::string& good = blob.value();

  int64_t offsets_entry[4];
  std::memcpy(offsets_entry, good.data() + 8 + 4 * 8 + 2 * 4 * 8,
              sizeof(offsets_entry));
  ASSERT_EQ(offsets_entry[0], 8);
  int64_t nbr_entry[4];
  std::memcpy(nbr_entry, good.data() + 8 + 4 * 8 + 3 * 4 * 8,
              sizeof(nbr_entry));
  ASSERT_EQ(nbr_entry[0], 9);
  ASSERT_GE(nbr_entry[2], static_cast<int64_t>(sizeof(int64_t)));

  // Overwrite the first neighbor id with an out-of-range value: the CRC
  // catches it in the checksumming loaders, and the structural validator
  // (which always runs, even on the lazy mapped path) catches the
  // out-of-range id independently.
  std::string corrupt = good;
  const int64_t bogus = int64_t{1} << 40;
  std::memcpy(&corrupt[static_cast<size_t>(nbr_entry[1])], &bogus,
              sizeof(bogus));
  ASSERT_TRUE(util::WriteStringToFile(path, corrupt).ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path, /*verify_checksums=*/true).ok());
  EXPECT_FALSE(LoadServingModelMapped(path, /*verify_checksums=*/false).ok());

  // Truncation inside the neighbors payload, the offsets payload, and the
  // section table.
  for (size_t keep :
       {good.size() - 3, static_cast<size_t>(offsets_entry[1]) + 2,
        size_t{8 + 4 * 8 + 3 * 4 * 8}}) {
    ASSERT_TRUE(util::WriteStringToFile(path, good.substr(0, keep)).ok());
    EXPECT_FALSE(LoadServingModel(path).ok()) << "keep=" << keep;
    EXPECT_FALSE(LoadServingModelMapped(path).ok()) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

// Retrieval must not care where the embedding bytes live: a heap-loaded
// and an mmap-loaded copy of the same artifact produce bit-identical
// rankings on every kernel backend, through both strategies.
TEST(ModelIoV3Test, MmapVsHeapRetrievalBitIdenticalAllBackends) {
  GnmrTrainer trainer = TrainedTrainer();
  trainer.model().RefreshInferenceCache();
  ServingModel original = ExportServingModel(trainer.model());
  ASSERT_TRUE(BuildHnswIndex(&original, 8, 32).ok());
  std::string path = testing::TempDir() + "/gnmr_parity.bin";
  ASSERT_TRUE(SaveServingModel(original, path).ok());

  auto heap_loaded = LoadServingModel(path);
  auto mapped_loaded = LoadServingModelMapped(path);
  ASSERT_TRUE(heap_loaded.ok());
  ASSERT_TRUE(mapped_loaded.ok());
  ASSERT_TRUE(mapped_loaded.value().is_mapped());
  auto heap = std::make_shared<const ServingModel>(
      std::move(heap_loaded).value());
  auto mapped = std::make_shared<const ServingModel>(
      std::move(mapped_loaded).value());

  const std::vector<int64_t> users = {0, 1, 2, 5, 9};
  constexpr int64_t kTopK = 10;
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    SCOPED_TRACE(backend->name());
    tensor::ScopedBackend scoped(backend->name());

    serve::ExactRetriever exact_heap(heap), exact_mapped(mapped);
    serve::HnswRetriever hnsw_heap(heap, nullptr, 32);
    serve::HnswRetriever hnsw_mapped(mapped, nullptr, 32);

    for (int64_t u : users) {
      EXPECT_EQ(exact_heap.RetrieveTopN(u, kTopK),
                exact_mapped.RetrieveTopN(u, kTopK));
      EXPECT_EQ(hnsw_heap.RetrieveTopN(u, kTopK),
                hnsw_mapped.RetrieveTopN(u, kTopK));
    }
    EXPECT_EQ(exact_heap.RetrieveBatch(users, kTopK),
              exact_mapped.RetrieveBatch(users, kTopK));
    EXPECT_EQ(hnsw_heap.RetrieveBatch(users, kTopK),
              hnsw_mapped.RetrieveBatch(users, kTopK));
  }
  std::remove(path.c_str());
}

// ---- Hostile headers and the mutation sweep ---------------------------------

constexpr size_t kHeaderBytes = 8 + 4 * 8;  // magic + 4 int64 fields
constexpr size_t kEntryBytes = 4 * 8;       // {id, offset, length, crc}

int64_t ReadI64(const std::string& bytes, size_t pos) {
  int64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

std::string WithI64(std::string bytes, size_t pos, int64_t v) {
  std::memcpy(&bytes[pos], &v, sizeof(v));
  return bytes;
}

// Header dimensions whose byte products overflow int64 must be rejected
// before any size arithmetic runs: 2 + 2^60 users times width 4 times 4
// bytes wraps, and a wrapped product must not match the 80-byte
// embeddings section (heap loader: no giant allocation; mapped loader: no
// 2^60-row view over 80 bytes). The same holds for the graph's m, whose
// level-0 degree cap is 2 * m.
TEST(ModelIoV3Test, RejectsOverflowingHeaderDimensions) {
  const std::string path = testing::TempDir() + "/gnmr_overflow.bin";
  ASSERT_TRUE(SaveServingModel(TinyModel(), path).ok());
  const std::string plain = util::ReadFileToString(path).value();
  ASSERT_EQ(ReadI64(plain, 8), 2);
  ASSERT_TRUE(SaveServingModel(TinyHnswModel(), path).ok());
  const std::string graph = util::ReadFileToString(path).value();
  const size_t entry = kHeaderBytes + kEntryBytes;  // table entry 1
  ASSERT_EQ(ReadI64(graph, entry), 7);              // HNSW meta, m first
  const size_t m_at = static_cast<size_t>(ReadI64(graph, entry + 8));
  const int64_t huge = int64_t{1} << 60;
  const std::string mutants[] = {
      WithI64(plain, 8, 2 + huge),   // num_users
      WithI64(plain, 16, 3 + huge),  // num_items
      WithI64(plain, 24, 4 + huge),  // width
      WithI64(plain, 24, int64_t{1} << 62),
      WithI64(plain, 8, std::numeric_limits<int64_t>::max()),
      WithI64(graph, m_at, (int64_t{1} << 62) + 2),
  };
  for (const std::string& bytes : mutants) {
    ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
    for (const util::Status& s :
         {LoadServingModel(path).status(),
          LoadServingModelMapped(path).status(),
          LoadServingModelMapped(path, /*verify_checksums=*/true).status()}) {
      EXPECT_EQ(s.code(), util::StatusCode::kParseError) << s.ToString();
    }
  }
  std::remove(path.c_str());
}

// A hand-built container: the header, a table entry per section (ids
// ascending, CRCs filled in), and each payload at the next 64-byte
// boundary behind zero padding — the layout an earlier build wrote.
std::string HandBuiltContainer(
    const char* magic, int64_t num_users, int64_t num_items, int64_t width,
    const std::vector<std::pair<int64_t, std::string>>& sections) {
  const int64_t count = static_cast<int64_t>(sections.size());
  std::string bytes(magic, 8);
  for (int64_t v : {num_users, num_items, width, count}) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  int64_t offset = static_cast<int64_t>(kHeaderBytes) +
                   count * static_cast<int64_t>(kEntryBytes);
  std::string payloads;
  for (const auto& [id, payload] : sections) {
    offset = (offset + 63) / 64 * 64;
    const int64_t length = static_cast<int64_t>(payload.size());
    const int64_t crc = util::Crc32(payload.data(), payload.size());
    for (int64_t v : {id, offset, length, crc}) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    offset += length;
  }
  for (const auto& [id, payload] : sections) {
    bytes.resize((bytes.size() + 63) / 64 * 64, '\0');
    bytes += payload;
  }
  return bytes;
}

template <typename T>
std::string PodBytes(const std::vector<T>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(T));
}

// Sections 2-6 held an inverted-file index (centroids, list offsets, list
// items) and its int8 code tier (codes, scales), which this build no
// longer reads: a container carrying them gets a ParseError asking for a
// re-save from both loaders, whatever its magic. The same bytes without
// those sections load, so the builder itself is sound.
TEST(ModelIoV3Test, RetiredIndexSectionsAskForResave) {
  const int64_t users = 2, items = 3, width = 4;
  const std::string emb =
      PodBytes(std::vector<float>((users + items) * width, 0.5f));
  const std::string centroids = PodBytes(std::vector<float>(width, 0.5f));
  const std::string offsets = PodBytes(std::vector<int64_t>{0, items});
  const std::string list = PodBytes(std::vector<int64_t>{0, 1, 2});
  const std::string codes(static_cast<size_t>(items * width), '\x7f');
  const std::string scales = PodBytes(std::vector<float>(items, 0.01f));
  const std::string path = testing::TempDir() + "/gnmr_retired_sections.bin";

  ASSERT_TRUE(util::WriteStringToFile(
                  path, HandBuiltContainer("GNMRSM03", users, items, width,
                                           {{1, emb}}))
                  .ok());
  auto plain = LoadServingModel(path);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().num_items, items);

  const std::vector<std::pair<int64_t, std::string>> float_index = {
      {1, emb}, {2, centroids}, {3, offsets}, {4, list}};
  std::vector<std::pair<int64_t, std::string>> code_index = float_index;
  code_index.push_back({5, codes});
  code_index.push_back({6, scales});
  const struct {
    const char* magic;
    const std::vector<std::pair<int64_t, std::string>>* sections;
  } cases[] = {{"GNMRSM03", &float_index}, {"GNMRSM04", &code_index}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.magic);
    ASSERT_TRUE(util::WriteStringToFile(
                    path, HandBuiltContainer(c.magic, users, items, width,
                                             *c.sections))
                    .ok());
    for (const util::Status& s :
         {LoadServingModel(path).status(),
          LoadServingModelMapped(path).status(),
          LoadServingModelMapped(path, /*verify_checksums=*/true).status()}) {
      EXPECT_EQ(s.code(), util::StatusCode::kParseError) << s.ToString();
      EXPECT_NE(s.message().find("retired"), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("(ids 2-6)"),
                std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("re-save with this build"),
                std::string::npos)
          << s.ToString();
    }
  }
  std::remove(path.c_str());
}

// A model the lazy mapped loader accepted must be sound, and every view
// must lie inside the mapping.
void ExpectSoundAndInside(const ServingModel& m) {
  ASSERT_TRUE(m.is_mapped());
  const uint8_t* begin = m.storage_file->data();
  const uint8_t* end = begin + m.storage_file->size();
  const auto expect_inside = [&](const void* data, int64_t bytes) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    EXPECT_TRUE(bytes == 0 || (p >= begin && p + bytes <= end));
  };
  ASSERT_EQ(m.embeddings.rows(), m.num_users + m.num_items);
  expect_inside(std::as_const(m.embeddings).data(), m.embeddings.numel() * 4);
  if (m.has_hnsw()) {
    m.hnsw->CheckConsistent(m.num_items);
    expect_inside(m.hnsw->neighbor_offsets.data(),
                  m.hnsw->neighbor_offsets.size() * 8);
    expect_inside(m.hnsw->neighbors.data(), m.hnsw->neighbors.size() * 8);
  }
}

// Loads one mutant three ways; each load must return a Status (crashes
// and sanitizer reports fail the test by themselves). Every mutant
// changes a checked byte, so the checksumming loaders reject it; the lazy
// mapped loader may accept only what it does not check by design (payload
// bytes and CRC fields), and what it accepts must be sound. Returns
// whether the lazy load succeeded.
bool LoadMutant(const std::string& path, const std::string& bytes) {
  EXPECT_TRUE(util::WriteStringToFile(path, bytes).ok());
  EXPECT_FALSE(LoadServingModel(path).ok());
  EXPECT_FALSE(LoadServingModelMapped(path, /*verify_checksums=*/true).ok());
  auto lazy = LoadServingModelMapped(path);
  if (lazy.ok()) ExpectSoundAndInside(lazy.value());
  return lazy.ok();
}

// Deterministic mutation sweep over one container of each kind: every
// single-bit flip in the header and section table, one bit flip in every
// payload byte and in every alignment-padding byte (which no loader may
// accept, the lazy one included), a truncation at every section boundary
// +-1, and rewrites of every header field and of each entry's id, offset
// and length to neighbouring values, 0, -1 and INT64_MAX.
TEST(ModelIoV3Test, MutationSweepReturnsStatus) {
  const std::string path = testing::TempDir() + "/gnmr_mutant.bin";
  for (const ServingModel& model : {TinyModel(), TinyHnswModel()}) {
    ASSERT_TRUE(SaveServingModel(model, path).ok());
    const std::string good = util::ReadFileToString(path).value();
    const size_t count = static_cast<size_t>(ReadI64(good, 32));
    const size_t table_end = kHeaderBytes + count * kEntryBytes;
    SCOPED_TRACE(testing::Message() << count << " sections");
    const auto flip = [&](size_t byte, size_t bit) {
      std::string bytes = good;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      return bytes;
    };

    for (size_t bit = 0; bit < table_end * 8; ++bit) {
      LoadMutant(path, flip(bit / 8, bit % 8));
    }
    std::vector<size_t> boundaries = {8, kHeaderBytes, table_end};
    std::vector<size_t> fields = {8, 16, 24, 32};  // the header
    size_t padding_flips = 0;
    size_t prev_end = table_end;
    for (size_t e = 0; e < count; ++e) {
      const size_t entry = kHeaderBytes + e * kEntryBytes;
      fields.insert(fields.end(), {entry, entry + 8, entry + 16});
      const size_t offset = static_cast<size_t>(ReadI64(good, entry + 8));
      const size_t length = static_cast<size_t>(ReadI64(good, entry + 16));
      boundaries.insert(boundaries.end(), {offset, offset + length});
      for (size_t i = prev_end; i < offset; ++i, ++padding_flips) {
        EXPECT_FALSE(LoadMutant(path, flip(i, i % 8))) << "padding " << i;
      }
      for (size_t i = 0; i < length; ++i) {
        LoadMutant(path, flip(offset + i, i % 8));
      }
      prev_end = offset + length;
    }
    EXPECT_GT(padding_flips, 0u);
    for (size_t b : boundaries) {
      for (size_t keep : {b - 1, b, b + 1}) {
        if (keep >= good.size()) continue;
        EXPECT_FALSE(LoadMutant(path, good.substr(0, keep))) << keep;
      }
    }
    for (size_t field : fields) {
      const int64_t v = ReadI64(good, field);
      for (int64_t to : {v - 1, v + 1, int64_t{0}, int64_t{-1},
                         std::numeric_limits<int64_t>::max()}) {
        if (to != v) LoadMutant(path, WithI64(good, field, to));
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace gnmr
