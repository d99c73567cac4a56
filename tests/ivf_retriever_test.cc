// Tests for the retrieval-strategy layer: deterministic k-means parity
// across kernel backends, the v1/v2 ServingModel artifact (IVF index
// round-trip + v1 backward compatibility), IvfRetriever exactness at
// nprobe == nlist (including seen-item filtering and cross-cluster score
// ties), measured recall + scan-fraction at nprobe = nlist/4 on clustered
// synthetic data, and RecService routing through the Retriever interface
// with the per-request exact fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/model_io.h"
#include "src/eval/retrieval_recall.h"
#include "src/serve/exact_retriever.h"
#include "src/serve/ivf_retriever.h"
#include "src/serve/rec_service.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernel_tunables.h"
#include "src/tensor/kmeans.h"
#include "src/tensor/quantize.h"
#include "src/tensor/shard_pool.h"
#include "src/util/rng.h"

namespace gnmr {
namespace {

using serve::BetterThan;
using serve::ExactRetriever;
using serve::IvfRetriever;
using serve::ItemShardMode;
using serve::RecEntry;

// ------------------------------------------------------------ test data ----

// Well-separated clustered embeddings: `num_clusters` centers drawn at a
// large scale, every item (and every user) sitting near one of them with
// small noise. Users prefer the items of "their" cluster by a wide margin,
// which is the regime an IVF index is built for.
core::ServingModel ClusteredModel(int64_t num_users, int64_t num_items,
                                  int64_t width, int64_t num_clusters,
                                  uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor centers =
      tensor::Tensor::RandomNormal({num_clusters, width}, &rng, 0.0f, 8.0f);
  core::ServingModel m;
  m.num_users = num_users;
  m.num_items = num_items;
  m.embeddings = tensor::Tensor({num_users + num_items, width});
  float* data = m.embeddings.data();
  for (int64_t r = 0; r < num_users + num_items; ++r) {
    // Users cycle through clusters; items fill clusters contiguously so
    // every cluster holds about num_items / num_clusters items.
    const int64_t c = r < num_users
                          ? r % num_clusters
                          : ((r - num_users) * num_clusters) / num_items;
    const float* center = centers.data() + c * width;
    for (int64_t j = 0; j < width; ++j) {
      data[r * width + j] = center[j] + rng.Normal(0.0f, 0.2f);
    }
  }
  return m;
}

void ExpectExactlyEqual(const std::vector<RecEntry>& got,
                        const std::vector<RecEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;  // bitwise
  }
}

// --------------------------------------------------------------- k-means ----

TEST(KMeansTest, DeterministicAndCovering) {
  core::ServingModel m = ClusteredModel(4, 256, 8, 8, 11);
  const float* items = m.embeddings.data() + m.num_users * 8;
  tensor::KMeansResult a = tensor::KMeansRows(items, 256, 8, 8);
  tensor::KMeansResult b = tensor::KMeansRows(items, 256, 8, 8);
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.assignments, b.assignments);
  for (int64_t i = 0; i < a.centroids.numel(); ++i) {
    EXPECT_EQ(a.centroids.data()[i], b.centroids.data()[i]);  // bitwise
  }
  int64_t total = 0;
  for (int64_t s : a.sizes) total += s;
  EXPECT_EQ(total, 256);
  for (int64_t assignment : a.assignments) {
    EXPECT_GE(assignment, 0);
    EXPECT_LT(assignment, 8);
  }
}

TEST(KMeansTest, ConvergedAssignmentsAreNearestCentroid) {
  // Lloyd fixed point: once converged, every row sits in the cluster of
  // its nearest centroid, ties to the lowest centroid id. (Random seeding
  // may split/merge true clusters — purity is NOT guaranteed; recall of
  // the IVF index built on top is what the retriever tests measure.)
  core::ServingModel m = ClusteredModel(4, 128, 8, 4, 23);
  const int64_t width = 8;
  const float* items = m.embeddings.data() + m.num_users * width;
  tensor::KMeansResult r = tensor::KMeansRows(items, 128, width, 4);
  ASSERT_TRUE(r.converged);
  for (int64_t i = 0; i < 128; ++i) {
    int64_t best = -1;
    double best_d = 0.0;
    for (int64_t c = 0; c < 4; ++c) {
      double d = 0.0;
      for (int64_t j = 0; j < width; ++j) {
        const double diff =
            static_cast<double>(items[i * width + j]) -
            static_cast<double>(r.centroids.data()[c * width + j]);
        d += diff * diff;
      }
      if (best < 0 || d < best_d) {
        best = c;
        best_d = d;
      }
    }
    // Allow for the formulation difference (|c|^2 - 2 x.c vs expanded
    // squared distance) only through strict improvement: the assigned
    // centroid's distance must not beat `best` by more than rounding.
    double assigned_d = 0.0;
    const int64_t a = r.assignments[static_cast<size_t>(i)];
    for (int64_t j = 0; j < width; ++j) {
      const double diff =
          static_cast<double>(items[i * width + j]) -
          static_cast<double>(r.centroids.data()[a * width + j]);
      assigned_d += diff * diff;
    }
    EXPECT_LE(assigned_d, best_d * (1.0 + 1e-6) + 1e-9) << "row " << i;
  }
}

TEST(KMeansTest, EmptyClusterKeepsItsCentroid) {
  // Two distinct points, duplicated; k = 3 must leave exactly one cluster
  // empty (ties go to the lowest centroid id) and keep its centroid value.
  tensor::Tensor rows = tensor::Tensor::FromData(
      {4, 2}, {0.0f, 0.0f, 0.0f, 0.0f, 10.0f, 10.0f, 10.0f, 10.0f});
  tensor::KMeansResult r = tensor::KMeansRows(rows, 3);
  std::vector<int64_t> sizes = r.sizes;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<int64_t>{0, 2, 2}));
  for (int64_t i = 0; i < r.centroids.numel(); ++i) {
    const float v = r.centroids.data()[i];
    EXPECT_TRUE(v == 0.0f || v == 10.0f) << v;
  }
}

TEST(KMeansTest, ParityAcrossAllBackends) {
  core::ServingModel m = ClusteredModel(4, 384, 12, 8, 31);
  const float* items = m.embeddings.data() + m.num_users * 12;
  tensor::KMeansResult reference;
  {
    tensor::ScopedBackend scoped("serial");
    reference = tensor::KMeansRows(items, 384, 12, 8);
  }
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    // Every backend must match serial exactly: the whole build compiles
    // with -ffp-contract=off, so not even -march=native FMA contraction
    // can introduce slack.
    tensor::ScopedBackend scoped(backend->name());
    tensor::KMeansResult got = tensor::KMeansRows(items, 384, 12, 8);
    EXPECT_EQ(got.assignments, reference.assignments) << backend->name();
    EXPECT_EQ(got.iterations, reference.iterations) << backend->name();
    for (int64_t i = 0; i < reference.centroids.numel(); ++i) {
      EXPECT_EQ(got.centroids.data()[i], reference.centroids.data()[i])
          << backend->name() << " element " << i;
    }
  }
}

TEST(KMeansTest, PlusPlusSeedingDeterministicAndDistinct) {
  core::ServingModel m = ClusteredModel(4, 384, 12, 8, 53);
  const float* items = m.embeddings.data() + m.num_users * 12;
  tensor::KMeansOptions options;
  options.plusplus_init = true;
  tensor::KMeansResult a = tensor::KMeansRows(items, 384, 12, 8, options);
  tensor::KMeansResult b = tensor::KMeansRows(items, 384, 12, 8, options);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  for (int64_t i = 0; i < a.centroids.numel(); ++i) {
    EXPECT_EQ(a.centroids.data()[i], b.centroids.data()[i]);  // bitwise
  }
  // The flag is opt-in: leaving it off must reproduce the historical
  // uniform draw bit-for-bit (persisted IVF indexes depend on it).
  tensor::KMeansResult legacy_a = tensor::KMeansRows(items, 384, 12, 8);
  tensor::KMeansOptions off;
  off.plusplus_init = false;
  tensor::KMeansResult legacy_b = tensor::KMeansRows(items, 384, 12, 8, off);
  EXPECT_EQ(legacy_a.assignments, legacy_b.assignments);
  for (int64_t i = 0; i < legacy_a.centroids.numel(); ++i) {
    EXPECT_EQ(legacy_a.centroids.data()[i], legacy_b.centroids.data()[i]);
  }
}

TEST(KMeansTest, PlusPlusParityAcrossBitExactBackends) {
  // D^2 seeding composes distances from RowDot norms and QueryDot cross
  // terms; both are bit-identical everywhere, so the chosen seeds — and
  // therefore the whole clustering — must match serial on every
  // bit-exact backend.
  core::ServingModel m = ClusteredModel(4, 384, 12, 8, 37);
  const float* items = m.embeddings.data() + m.num_users * 12;
  tensor::KMeansOptions options;
  options.plusplus_init = true;
  tensor::KMeansResult reference;
  {
    tensor::ScopedBackend scoped("serial");
    reference = tensor::KMeansRows(items, 384, 12, 8, options);
  }
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    tensor::KMeansResult got = tensor::KMeansRows(items, 384, 12, 8, options);
    EXPECT_EQ(got.assignments, reference.assignments) << backend->name();
    EXPECT_EQ(got.iterations, reference.iterations) << backend->name();
    for (int64_t i = 0; i < reference.centroids.numel(); ++i) {
      EXPECT_EQ(got.centroids.data()[i], reference.centroids.data()[i])
          << backend->name() << " element " << i;
    }
  }
}

TEST(KMeansTest, PlusPlusSpreadsSeedsAcrossSeparatedClusters) {
  // On well-separated clusters D^2 sampling should land its k seeds in k
  // distinct true clusters (a uniform draw frequently doubles up), which
  // is the whole point of the init: Lloyd starts near the answer. Assert
  // the within-cluster cost is no worse than the uniform init's — and
  // that on this fixture the seeds cover every true cluster.
  const int64_t n = 512, d = 8, k = 8;
  core::ServingModel m = ClusteredModel(4, n, d, k, 101);
  const float* items = m.embeddings.data() + m.num_users * d;
  auto cost = [&](const tensor::KMeansResult& r) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t c = r.assignments[static_cast<size_t>(i)];
      for (int64_t j = 0; j < d; ++j) {
        const double diff =
            static_cast<double>(items[i * d + j]) -
            static_cast<double>(r.centroids.data()[c * d + j]);
        total += diff * diff;
      }
    }
    return total;
  };
  tensor::KMeansOptions uniform;
  tensor::KMeansOptions plusplus;
  plusplus.plusplus_init = true;
  tensor::KMeansResult u = tensor::KMeansRows(items, n, d, k, uniform);
  tensor::KMeansResult p = tensor::KMeansRows(items, n, d, k, plusplus);
  EXPECT_LE(cost(p), cost(u) * (1.0 + 1e-9));
  // Items fill true clusters contiguously (ClusteredModel), so an
  // assignment that separates all k of them maps each true cluster onto
  // its own centroid — check the k++ run found every cluster.
  std::vector<char> hit(static_cast<size_t>(k), 0);
  for (int64_t c = 0; c < k; ++c) {
    hit[static_cast<size_t>(
        p.assignments[static_cast<size_t>(c * n / k)])] = 1;
  }
  int64_t distinct = 0;
  for (char h : hit) distinct += h;
  EXPECT_EQ(distinct, k) << "k-means++ seeds missed a true cluster";
}

// ---------------------------------------------------------- the artifact ----

TEST(IvfArtifactTest, BuildIvfIndexStructure) {
  core::ServingModel m = ClusteredModel(16, 512, 8, 8, 41);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 8).ok());
  ASSERT_TRUE(m.has_ivf());
  EXPECT_EQ(m.ivf->nlist(), 8);
  EXPECT_EQ(static_cast<int64_t>(m.ivf->list_items.size()), 512);
  m.ivf->CheckConsistent(m.num_items, m.embeddings.cols());
  // Posting lists ascending within each cluster.
  for (int64_t c = 0; c < 8; ++c) {
    for (int64_t p = m.ivf->list_offsets[static_cast<size_t>(c)] + 1;
         p < m.ivf->list_offsets[static_cast<size_t>(c) + 1]; ++p) {
      EXPECT_LT(m.ivf->list_items[static_cast<size_t>(p) - 1],
                m.ivf->list_items[static_cast<size_t>(p)]);
    }
  }
}

TEST(IvfArtifactTest, NlistClampedToCatalogue) {
  core::ServingModel m = ClusteredModel(4, 16, 4, 2, 43);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 999).ok());
  EXPECT_EQ(m.ivf->nlist(), 16);
}

TEST(IvfArtifactTest, V2RoundTripPreservesIndex) {
  core::ServingModel original = ClusteredModel(16, 512, 8, 8, 47);
  ASSERT_TRUE(core::BuildIvfIndex(&original, 8).ok());
  std::string path = testing::TempDir() + "/gnmr_v2.bin";
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());
  auto loaded = core::LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::ServingModel& got = loaded.value();
  ASSERT_TRUE(got.has_ivf());
  EXPECT_EQ(got.num_users, original.num_users);
  EXPECT_EQ(got.num_items, original.num_items);
  for (int64_t i = 0; i < original.embeddings.numel(); ++i) {
    EXPECT_EQ(got.embeddings.data()[i], original.embeddings.data()[i]);
  }
  EXPECT_EQ(got.ivf->list_offsets, original.ivf->list_offsets);
  EXPECT_EQ(got.ivf->list_items, original.ivf->list_items);
  ASSERT_TRUE(got.ivf->centroids.SameShape(original.ivf->centroids));
  for (int64_t i = 0; i < original.ivf->centroids.numel(); ++i) {
    EXPECT_EQ(got.ivf->centroids.data()[i],
              original.ivf->centroids.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(IvfArtifactTest, ModelWithoutIndexStillWritesV1) {
  core::ServingModel original = ClusteredModel(8, 32, 4, 2, 53);
  std::string path = testing::TempDir() + "/gnmr_v1_roundtrip.bin";
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());
  // The file must carry the v1 magic: readers that predate the index
  // understand every index-less artifact this build writes.
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  in.read(magic, 8);
  EXPECT_EQ(std::memcmp(magic, "GNMRSM01", 8), 0);
  in.close();
  auto loaded = core::LoadServingModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_ivf());
  std::remove(path.c_str());
}

TEST(IvfArtifactTest, LoadsHandWrittenV1File) {
  // A v1 file written byte-by-byte, as the pre-index format produced it.
  const int64_t num_users = 2, num_items = 3, width = 2;
  std::vector<float> emb(static_cast<size_t>((num_users + num_items) * width));
  for (size_t i = 0; i < emb.size(); ++i) emb[i] = 0.5f * static_cast<float>(i);
  std::string path = testing::TempDir() + "/gnmr_legacy_v1.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("GNMRSM01", 8);
    int64_t header[3] = {num_users, num_items, width};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(emb.data()),
              static_cast<std::streamsize>(emb.size() * sizeof(float)));
  }
  auto loaded = core::LoadServingModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_ivf());
  EXPECT_EQ(loaded.value().num_users, num_users);
  EXPECT_EQ(loaded.value().num_items, num_items);
  for (size_t i = 0; i < emb.size(); ++i) {
    EXPECT_EQ(loaded.value().embeddings.data()[i], emb[i]);
  }
  std::remove(path.c_str());
}

TEST(IvfArtifactTest, RejectsCorruptV2Files) {
  core::ServingModel original = ClusteredModel(8, 64, 4, 4, 59);
  ASSERT_TRUE(core::BuildIvfIndex(&original, 4).ok());
  std::string path = testing::TempDir() + "/gnmr_v2_corrupt.bin";
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());

  // Truncated index section.
  {
    std::ifstream in(path, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(),
              static_cast<std::streamsize>(blob.size() - 16));
  }
  EXPECT_FALSE(core::LoadServingModel(path).ok());

  // Out-of-range posting-list entry.
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-static_cast<std::streamoff>(sizeof(int64_t)), std::ios::end);
    int64_t bogus = original.num_items + 100;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_FALSE(core::LoadServingModel(path).ok());

  // Trailing bytes.
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("junk", 4);
  }
  EXPECT_FALSE(core::LoadServingModel(path).ok());

  // Out-of-range INTERMEDIATE offset: passes the front/back checks but
  // must be rejected before the loader walks list_items (heap over-read
  // otherwise). Offsets live right after nlist + centroids; patch the
  // second entry.
  ASSERT_TRUE(core::SaveServingModel(original, path).ok());
  {
    const std::streamoff offsets_pos =
        8 + 3 * static_cast<std::streamoff>(sizeof(int64_t)) +
        static_cast<std::streamoff>(original.embeddings.numel() *
                                    sizeof(float)) +
        static_cast<std::streamoff>(sizeof(int64_t)) +
        static_cast<std::streamoff>(original.ivf->centroids.numel() *
                                    sizeof(float));
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offsets_pos + static_cast<std::streamoff>(sizeof(int64_t)));
    int64_t huge = int64_t{1} << 40;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(core::LoadServingModel(path).ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- the retriever --

// Builds a clustered model + index where two items in DIFFERENT posting
// lists share identical embeddings, so their scores tie exactly for every
// user and the tie must break across clusters by item id.
std::shared_ptr<const core::ServingModel> TiedIvfModel(
    int64_t* tied_lo, int64_t* tied_hi, int64_t num_items = 512) {
  core::ServingModel m = ClusteredModel(24, num_items, 8, 8, 61);
  const int64_t width = m.embeddings.cols();
  GNMR_CHECK(core::BuildIvfIndex(&m, 8).ok());
  // Pick the first item of two different posting lists and duplicate the
  // embedding AFTER the index is built: the lists keep their members, but
  // the two items now score identically everywhere.
  const int64_t a = m.ivf->list_items[static_cast<size_t>(
      m.ivf->list_offsets[0])];
  const int64_t b = m.ivf->list_items[static_cast<size_t>(
      m.ivf->list_offsets[4])];
  float* data = m.embeddings.data();
  for (int64_t c = 0; c < width; ++c) {
    data[(m.num_users + b) * width + c] = data[(m.num_users + a) * width + c];
  }
  *tied_lo = std::min(a, b);
  *tied_hi = std::max(a, b);
  return std::make_shared<const core::ServingModel>(std::move(m));
}

// Catalogues for the ItemShardMode::kOn cases, sized so a request's
// candidate scan cuts at least 3 shards at kShardMinItemsPerShard on a
// 3-worker pool: every item when all 8 lists are probed, and 3 of the 8
// equal-sized lists at nprobe = 3.
constexpr int64_t kAllListsShardedItems =
    3 * tensor::kShardMinItemsPerShard + 64;
constexpr int64_t kThreeListsShardedItems =
    8 * tensor::kShardMinItemsPerShard + 64;

// Pins the pool at 3 workers for the kOn cases, restoring it on exit.
class ScopedThreeShardWorkers {
 public:
  ScopedThreeShardWorkers() : previous_(tensor::ShardWorkers()) {
    tensor::SetShardWorkers(3);
  }
  ~ScopedThreeShardWorkers() { tensor::SetShardWorkers(previous_); }

 private:
  int64_t previous_;
};

serve::SeenItems MakeSeen(int64_t num_users, int64_t num_items) {
  data::Dataset d;
  d.name = "seen";
  d.num_users = num_users;
  d.num_items = num_items;
  d.behavior_names = {"buy"};
  d.target_behavior = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t i = 0; i < 5; ++i) {
      d.interactions.push_back({u, (u * 7 + i * 13) % num_items, 0, i});
    }
  }
  return serve::SeenItems::FromDataset(d, false);
}

TEST(IvfRetrieverTest, NprobeEqualsNlistBitIdenticalToExact) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi, kAllListsShardedItems);
  ScopedThreeShardWorkers workers;
  auto seen = std::make_shared<const serve::SeenItems>(
      MakeSeen(model->num_users, model->num_items));
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    for (ItemShardMode mode : {ItemShardMode::kOff, ItemShardMode::kOn}) {
      ExactRetriever exact(model, seen, mode);
      IvfRetriever ivf(model, seen, /*nprobe=*/8, mode);
      ASSERT_EQ(ivf.nprobe(), ivf.nlist());
      for (int64_t user = 0; user < model->num_users; ++user) {
        for (int64_t k : {1, 10, 64}) {
          std::vector<RecEntry> want = exact.RetrieveTopN(user, k);
          std::vector<RecEntry> got = ivf.RetrieveTopN(user, k);
          ExpectExactlyEqual(got, want);
        }
      }
      // The cross-cluster tie pair must appear adjacent, lower id first,
      // when both make the cut (k = catalogue, no filtering of them).
      std::vector<RecEntry> full = ivf.RetrieveTopN(0, model->num_items);
      int64_t pos_lo = -1, pos_hi = -1;
      for (size_t i = 0; i < full.size(); ++i) {
        if (full[i].item == tied_lo) pos_lo = static_cast<int64_t>(i);
        if (full[i].item == tied_hi) pos_hi = static_cast<int64_t>(i);
      }
      if (pos_lo >= 0 && pos_hi >= 0) {
        EXPECT_EQ(pos_hi, pos_lo + 1) << "tied items not adjacent";
      }
    }
  }
}

TEST(IvfRetrieverTest, BatchMatchesPerUserCalls) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi, kThreeListsShardedItems);
  ScopedThreeShardWorkers workers;
  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  for (ItemShardMode mode : {ItemShardMode::kOff, ItemShardMode::kOn}) {
    IvfRetriever ivf(model, nullptr, /*nprobe=*/3, mode);
    std::vector<std::vector<RecEntry>> batch = ivf.RetrieveBatch(users, 10);
    ASSERT_EQ(batch.size(), users.size());
    for (size_t u = 0; u < users.size(); ++u) {
      ExpectExactlyEqual(batch[u], ivf.RetrieveTopN(users[u], 10));
    }
  }
}

TEST(IvfRetrieverTest, ShardedMatchesUnsharded) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi, kThreeListsShardedItems);
  ScopedThreeShardWorkers workers;
  IvfRetriever off(model, nullptr, /*nprobe=*/3, ItemShardMode::kOff);
  IvfRetriever on(model, nullptr, /*nprobe=*/3, ItemShardMode::kOn);
  for (int64_t user = 0; user < model->num_users; ++user) {
    ExpectExactlyEqual(on.RetrieveTopN(user, 10), off.RetrieveTopN(user, 10));
  }
  // Every request's candidate scan was big enough to cut 3 shards.
  const serve::RetrieverStats stats = on.Stats();
  EXPECT_GE(stats.scanned_items / stats.requests,
            3u * static_cast<uint64_t>(tensor::kShardMinItemsPerShard));
}

TEST(IvfRetrieverTest, RecallAtQuarterNprobeOnClusteredData) {
  // The acceptance bar: nprobe = nlist/4 on clustered synthetic data must
  // keep recall@10 >= 0.95 while scanning < 40% of the catalogue.
  core::ServingModel m = ClusteredModel(128, 2048, 16, 16, 67);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 16).ok());
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  ExactRetriever exact(model, nullptr, ItemShardMode::kOff);
  IvfRetriever ivf(model, nullptr, /*nprobe=*/4, ItemShardMode::kOff);
  ASSERT_EQ(ivf.nprobe(), 4);

  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  const double recall = eval::RetrievalRecallAtK(exact, ivf, users, 10);
  EXPECT_GE(recall, 0.95) << "IVF recall@10 collapsed";

  serve::RetrieverStats stats = ivf.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(users.size()));
  EXPECT_EQ(stats.probed_clusters, static_cast<uint64_t>(users.size()) * 4);
  const double scanned_fraction =
      static_cast<double>(stats.scanned_items) /
      (static_cast<double>(users.size()) *
       static_cast<double>(model->num_items));
  EXPECT_LT(scanned_fraction, 0.40) << "IVF scanned too much";
  EXPECT_GT(scanned_fraction, 0.0);
}

TEST(IvfRetrieverTest, ScannedBytesAccountsForStreamedEmbeddings) {
  // scanned_bytes is the exact memory-bandwidth cost of the scan: item
  // rows streamed, plus (for IVF) the centroid rows every probe reads.
  core::ServingModel m = ClusteredModel(32, 512, 8, 8, 91);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 8).ok());
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  const uint64_t width = static_cast<uint64_t>(model->embeddings.cols());
  const std::vector<int64_t> users = {0, 1, 2, 3, 4, 5, 6, 7};

  ExactRetriever exact(model, nullptr, ItemShardMode::kOff);
  exact.RetrieveTopN(0, 10);
  exact.RetrieveBatch(users, 10);
  serve::RetrieverStats es = exact.Stats();
  EXPECT_EQ(es.scanned_items,
            (1 + users.size()) * static_cast<uint64_t>(model->num_items));
  EXPECT_EQ(es.scanned_bytes, es.scanned_items * width * sizeof(float));

  IvfRetriever ivf(model, nullptr, /*nprobe=*/2, ItemShardMode::kOff);
  ivf.RetrieveTopN(0, 10);
  ivf.RetrieveBatch(users, 10);
  serve::RetrieverStats is = ivf.Stats();
  EXPECT_GT(is.scanned_items, 0u);
  EXPECT_LT(is.scanned_items, es.scanned_items);  // probes a subset
  const uint64_t centroid_rows =
      is.requests * static_cast<uint64_t>(ivf.nlist());
  EXPECT_EQ(is.scanned_bytes,
            (is.scanned_items + centroid_rows) * width * sizeof(float));
}

TEST(IvfRetrieverTest, ProbeSelectionDeterministicAcrossBackends) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);
  IvfRetriever reference(model, nullptr, /*nprobe=*/2, ItemShardMode::kOff);
  std::vector<std::vector<RecEntry>> want;
  for (int64_t u = 0; u < model->num_users; ++u) {
    want.push_back(reference.RetrieveTopN(u, 10));
  }
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    IvfRetriever ivf(model, nullptr, /*nprobe=*/2, ItemShardMode::kAuto);
    for (int64_t u = 0; u < model->num_users; ++u) {
      ExpectExactlyEqual(ivf.RetrieveTopN(u, 10),
                         want[static_cast<size_t>(u)]);
    }
  }
}

// ------------------------------------------------------ the quantized tier --

TEST(IvfQuantizedTest, BuildAttachesCodesInPostingOrder) {
  core::ServingModel m = ClusteredModel(8, 256, 8, 4, 73);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 4, /*quantize=*/true).ok());
  ASSERT_TRUE(m.ivf->has_codes());
  const int64_t width = m.embeddings.cols();
  ASSERT_EQ(static_cast<int64_t>(m.ivf->codes.size()), m.num_items * width);
  ASSERT_EQ(static_cast<int64_t>(m.ivf->code_scales.size()), m.num_items);
  // The codes at posting position p quantize item list_items[p]'s row —
  // NOT item p's row — so each probed list streams contiguously.
  const float* item_base = m.embeddings.data() + m.num_users * width;
  for (int64_t pos : {int64_t{0}, int64_t{100}, m.num_items - 1}) {
    const int64_t item = m.ivf->list_items[static_cast<size_t>(pos)];
    std::vector<int8_t> want(static_cast<size_t>(width));
    const float scale = tensor::quant::QuantizeRowI8(
        item_base + item * width, width, want.data());
    EXPECT_EQ(scale, m.ivf->code_scales.data()[pos]) << "pos " << pos;
    for (int64_t j = 0; j < width; ++j) {
      EXPECT_EQ(want[static_cast<size_t>(j)],
                m.ivf->codes.data()[pos * width + j])
          << "pos " << pos << " lane " << j;
    }
  }
  // BuildIvfIndex without the flag attaches no codes.
  core::ServingModel plain = ClusteredModel(8, 256, 8, 4, 73);
  ASSERT_TRUE(core::BuildIvfIndex(&plain, 4).ok());
  EXPECT_FALSE(plain.ivf->has_codes());
}

TEST(IvfQuantizedTest, MatchesFloatWhenRerankCoversScan) {
  // With rerank_k >= every scanned candidate, phase 2 re-scores the whole
  // probed set exactly — so the output must be BITWISE identical to the
  // float IVF scan at the same nprobe: quantization only decides who
  // reaches the pool, and here everybody does.
  core::ServingModel m = ClusteredModel(24, 512, 8, 8, 79);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 8, /*quantize=*/true).ok());
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  auto seen = std::make_shared<const serve::SeenItems>(
      MakeSeen(model->num_users, model->num_items));
  IvfRetriever floaty(model, seen, /*nprobe=*/3, ItemShardMode::kOff);
  IvfRetriever quant(model, seen, /*nprobe=*/3, ItemShardMode::kOff,
                     /*quantized=*/true, /*rerank_k=*/512);
  ASSERT_TRUE(quant.quantized());
  EXPECT_EQ(quant.rerank_k(), 512);
  for (int64_t user = 0; user < model->num_users; ++user) {
    ExpectExactlyEqual(quant.RetrieveTopN(user, 10),
                       floaty.RetrieveTopN(user, 10));
  }
}

TEST(IvfQuantizedTest, QuantizedDegradesToFloatWithoutCodes) {
  // quantized = true against a codeless index serves the float path (the
  // effective state is exposed, nothing aborts).
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);  // built without codes
  IvfRetriever quant(model, nullptr, /*nprobe=*/3, ItemShardMode::kOff,
                     /*quantized=*/true);
  EXPECT_FALSE(quant.quantized());
  EXPECT_EQ(quant.rerank_k(), tensor::kIvfDefaultRerankK);
  IvfRetriever floaty(model, nullptr, /*nprobe=*/3, ItemShardMode::kOff);
  ExpectExactlyEqual(quant.RetrieveTopN(0, 10), floaty.RetrieveTopN(0, 10));
  EXPECT_EQ(quant.Stats().scanned_code_bytes, 0u);
}

TEST(IvfQuantizedTest, RecallAndBandwidthGateAtPinnedConfig) {
  // The acceptance bar for the quantized tier, at its pinned config:
  // 8192 items x width 32, nlist 64, nprobe 16, rerank_k 64, k 10. The
  // two-phase scan must keep recall@10 >= 0.95 against the EXACT scan
  // while streaming <= 0.35x the bytes of the float IVF scan on the same
  // queries (int8 codes + scales + the small rerank, vs full float rows).
  core::ServingModel m = ClusteredModel(64, 8192, 32, 64, 83);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 64, /*quantize=*/true).ok());
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  ExactRetriever exact(model, nullptr, ItemShardMode::kOff);
  IvfRetriever floaty(model, nullptr, /*nprobe=*/16, ItemShardMode::kOff);
  IvfRetriever quant(model, nullptr, /*nprobe=*/16, ItemShardMode::kOff,
                     /*quantized=*/true, /*rerank_k=*/64);
  ASSERT_TRUE(quant.quantized());

  std::vector<int64_t> users;
  for (int64_t u = 0; u < model->num_users; ++u) users.push_back(u);
  const double recall = eval::RetrievalRecallAtK(exact, quant, users, 10);
  EXPECT_GE(recall, 0.95) << "quantized recall@10 collapsed";

  for (int64_t u : users) floaty.RetrieveTopN(u, 10);
  serve::RetrieverStats qs = quant.Stats();
  serve::RetrieverStats fs = floaty.Stats();
  // Identical probe sets (same ProbeClusters) -> identical coverage; the
  // win is pure bytes-per-scanned-item.
  EXPECT_EQ(qs.scanned_items, fs.scanned_items);
  ASSERT_GT(fs.scanned_bytes, 0u);
  const double ratio = static_cast<double>(qs.scanned_bytes) /
                       static_cast<double>(fs.scanned_bytes);
  EXPECT_LE(ratio, 0.35) << "quantized scan streams too many bytes";
  EXPECT_GT(qs.scanned_code_bytes, 0u);
  EXPECT_LT(qs.scanned_code_bytes, qs.scanned_bytes);
}

TEST(IvfQuantizedTest, QuantizedStatsFormulas) {
  // scanned_bytes decomposes exactly: nlist centroid rows per request
  // (the probe) + (width code bytes + one float scale) per scanned item
  // + a full float row per reranked survivor; scanned_code_bytes is the
  // middle term alone.
  core::ServingModel m = ClusteredModel(16, 512, 8, 8, 87);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 8, /*quantize=*/true).ok());
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  const uint64_t width = static_cast<uint64_t>(model->embeddings.cols());
  const int64_t rerank_k = 32;
  IvfRetriever quant(model, nullptr, /*nprobe=*/2, ItemShardMode::kOff,
                     /*quantized=*/true, rerank_k);
  const std::vector<int64_t> users = {0, 1, 2, 3};
  for (int64_t u : users) quant.RetrieveTopN(u, 10);
  serve::RetrieverStats s = quant.Stats();
  EXPECT_EQ(s.requests, users.size());
  EXPECT_EQ(s.probed_clusters, users.size() * 2);
  EXPECT_GT(s.scanned_items, 0u);
  EXPECT_EQ(s.scanned_code_bytes,
            s.scanned_items * (width + sizeof(float)));
  EXPECT_EQ(s.scanned_bytes,
            s.requests * static_cast<uint64_t>(quant.nlist()) * width *
                    sizeof(float) +
                s.scanned_code_bytes +
                s.reranked_items * width * sizeof(float));
  EXPECT_LE(s.reranked_items,
            s.requests * static_cast<uint64_t>(rerank_k));
  EXPECT_GE(s.reranked_items, s.requests * 10u);  // pool never below k
}

TEST(IvfQuantizedTest, DeterministicAcrossBackendsAndShardModes) {
  // Integer dots are exact everywhere, the dequantization is one pinned
  // float expression, the pool is a total-order top set, and the rerank
  // is the lane-partial contract — so EVERY registered backend, at every
  // shard mode, must reproduce the reference bitwise.
  core::ServingModel m = ClusteredModel(24, kThreeListsShardedItems, 8, 8, 89);
  ASSERT_TRUE(core::BuildIvfIndex(&m, 8, /*quantize=*/true).ok());
  ScopedThreeShardWorkers workers;
  auto model = std::make_shared<const core::ServingModel>(std::move(m));
  auto seen = std::make_shared<const serve::SeenItems>(
      MakeSeen(model->num_users, model->num_items));
  IvfRetriever reference(model, seen, /*nprobe=*/3, ItemShardMode::kOff,
                         /*quantized=*/true);
  ASSERT_TRUE(reference.quantized());
  std::vector<std::vector<RecEntry>> want;
  std::vector<int64_t> all_users;
  for (int64_t u = 0; u < model->num_users; ++u) {
    want.push_back(reference.RetrieveTopN(u, 10));
    all_users.push_back(u);
  }
  for (const tensor::KernelBackend* backend : tensor::AllBackends()) {
    tensor::ScopedBackend scoped(backend->name());
    for (ItemShardMode mode : {ItemShardMode::kOff, ItemShardMode::kOn}) {
      IvfRetriever quant(model, seen, /*nprobe=*/3, mode,
                         /*quantized=*/true);
      for (int64_t u = 0; u < model->num_users; ++u) {
        ExpectExactlyEqual(quant.RetrieveTopN(u, 10),
                           want[static_cast<size_t>(u)]);
      }
      // Batch fan-out must not change per-user results either.
      std::vector<std::vector<RecEntry>> batch =
          quant.RetrieveBatch(all_users, 10);
      for (size_t u = 0; u < batch.size(); ++u) {
        ExpectExactlyEqual(batch[u], want[u]);
      }
    }
  }
}

// ----------------------------------------------------------- the service ----

TEST(RecServiceIvfTest, RoutesThroughConfiguredStrategy) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kIvf;
  options.nprobe = 3;
  serve::RecService service(model, nullptr, options);
  EXPECT_STREQ(service.retriever()->name(), "ivf");

  IvfRetriever ivf(model, nullptr, /*nprobe=*/3, ItemShardMode::kAuto);
  ExactRetriever exact(model, nullptr, ItemShardMode::kAuto);
  for (int64_t user = 0; user < 8; ++user) {
    ExpectExactlyEqual(service.Recommend(user, 10),
                       ivf.RetrieveTopN(user, 10));
  }
  // The per-request exact knob bypasses index AND cache.
  for (int64_t user = 0; user < 8; ++user) {
    ExpectExactlyEqual(service.Recommend(user, 10, /*exact=*/true),
                       exact.RetrieveTopN(user, 10));
  }
  serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exact_fallbacks, 8u);
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_GT(stats.retrieval.probed_clusters, 0u);
  EXPECT_GT(stats.retrieval.scanned_items, 0u);

  // Batched exact fallback too.
  std::vector<int64_t> users = {0, 1, 2, 3};
  std::vector<std::vector<RecEntry>> batch =
      service.RecommendBatch(users, 10, /*exact=*/true);
  for (size_t u = 0; u < users.size(); ++u) {
    ExpectExactlyEqual(batch[u], exact.RetrieveTopN(users[u], 10));
  }
  EXPECT_EQ(service.stats().exact_fallbacks, 12u);
}

TEST(RecServiceIvfTest, ExactServiceIgnoresExactKnob) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);
  serve::RecService service(model, nullptr);
  EXPECT_STREQ(service.retriever()->name(), "exact");
  std::vector<RecEntry> a = service.Recommend(3, 10);
  std::vector<RecEntry> b = service.Recommend(3, 10, /*exact=*/true);
  ExpectExactlyEqual(b, a);
  serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exact_fallbacks, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);  // the knob is a no-op: cache still used
}

TEST(RecServiceIvfTest, CacheServesIvfResultsAndSwapInvalidates) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kIvf;
  options.nprobe = 3;
  serve::RecService service(model, nullptr, options);
  std::vector<RecEntry> first = service.Recommend(5, 10);
  std::vector<RecEntry> second = service.Recommend(5, 10);
  ExpectExactlyEqual(second, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // A model carrying an index hot-swaps in; the cache resets.
  service.SwapModel(model);
  EXPECT_EQ(service.model_version(), 1u);
  std::vector<RecEntry> third = service.Recommend(5, 10);
  ExpectExactlyEqual(third, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // miss after invalidation
}

TEST(RecServiceIvfTest, LoadAndSwapBuildsIndexForV1Artifacts) {
  core::ServingModel base = ClusteredModel(24, 1024, 8, 8, 71);
  std::string path = testing::TempDir() + "/gnmr_v1_for_ivf.bin";
  ASSERT_TRUE(core::SaveServingModel(base, path).ok());  // v1: no index

  core::ServingModel with_index = base;
  ASSERT_TRUE(core::BuildIvfIndex(&with_index, 8).ok());
  serve::RecService::Options options;
  options.retriever = serve::RetrieverKind::kIvf;
  options.nlist = 8;
  options.nprobe = 2;
  serve::RecService service(
      std::make_shared<const core::ServingModel>(std::move(with_index)),
      nullptr, options);
  std::vector<RecEntry> before = service.Recommend(3, 10);
  // The v1 artifact lacks an index; LoadAndSwap must build one (same
  // nlist, same deterministic k-means) rather than reject the file.
  util::Status s = service.LoadAndSwap(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(service.model_version(), 1u);
  std::vector<RecEntry> after = service.Recommend(3, 10);
  // Same embeddings, same deterministic clustering -> same lists.
  ExpectExactlyEqual(after, before);
  std::remove(path.c_str());
}

TEST(RetrievalRecallTest, ExactAgainstItselfIsPerfect) {
  int64_t tied_lo = 0, tied_hi = 0;
  auto model = TiedIvfModel(&tied_lo, &tied_hi);
  ExactRetriever a(model), b(model);
  std::vector<int64_t> users = {0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(eval::RetrievalRecallAtK(a, b, users, 10), 1.0);
  EXPECT_DOUBLE_EQ(eval::RetrievalRecallAtK(a, b, {}, 10), 1.0);
}

}  // namespace
}  // namespace gnmr
