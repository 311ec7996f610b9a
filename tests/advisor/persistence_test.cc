#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/serde.h"
#include "util/snapshot.h"

namespace autoce::advisor {
namespace {

/// Builds a tiny corpus with synthetic labels (no testbed run needed):
/// label structure only has to be internally consistent for persistence
/// round-trip checks.
struct TinyCorpus {
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<DatasetLabel> labels;
};

TinyCorpus MakeTinyCorpus(int n) {
  TinyCorpus out;
  featgraph::FeatureExtractor fx;
  Rng rng(8);
  for (int i = 0; i < n; ++i) {
    data::DatasetGenParams p;
    p.min_tables = 1;
    p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 250;
    Rng child = rng.Fork(static_cast<uint64_t>(i));
    out.graphs.push_back(fx.Extract(data::GenerateDataset(p, &child)));
    DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
      label.qerror_mean[m] = child.Uniform(1.0, 50.0);
      label.latency_ms[m] = child.Uniform(0.1, 100.0);
    }
    out.labels.push_back(label);
  }
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(PersistenceTest, SaveLoadRoundTripPreservesRecommendations) {
  TinyCorpus corpus = MakeTinyCorpus(16);
  AutoCeConfig cfg;
  cfg.dml.epochs = 8;
  cfg.gin.hidden = 12;
  cfg.gin.embedding_dim = 6;
  cfg.knn_k = 3;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  std::string path = std::string(::testing::TempDir()) + "/advisor.ace";
  ASSERT_TRUE(advisor.Save(path).ok());

  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->RcsSize(), advisor.RcsSize());
  EXPECT_NEAR(loaded->DriftThreshold(), advisor.DriftThreshold(), 1e-9);
  EXPECT_EQ(loaded->config().knn_k, 3);

  // Every recommendation must match exactly (same embeddings, same RCS).
  TinyCorpus probes = MakeTinyCorpus(6);
  for (const auto& g : probes.graphs) {
    for (double w : {1.0, 0.7, 0.3}) {
      auto a = advisor.Recommend(g, w);
      auto b = loaded->Recommend(g, w);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->model, b->model);
      EXPECT_EQ(a->neighbors, b->neighbors);
      for (size_t m = 0; m < a->score_vector.size(); ++m) {
        EXPECT_NEAR(a->score_vector[m], b->score_vector[m], 1e-12);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripPreservesDegradedLabelsAndFailedFlags) {
  // Labels carrying failed testbed cells (sentinel-floor scores, capped
  // raw metrics) must survive Save/Load bit for bit: the failed[] flags
  // drive the Eq. 3-4 renormalization on any later online update, so a
  // lossy round trip would silently change future label math.
  TinyCorpus corpus = MakeTinyCorpus(14);
  Rng rng(41);
  for (auto& label : corpus.labels) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      if (rng.Uniform(0.0, 1.0) < 0.3) {
        label.failed[m] = true;
        label.accuracy_score[m] = kScoreFloor;
        label.efficiency_score[m] = kScoreFloor;
        label.qerror_mean[m] = kQErrorCap;
        label.latency_ms[m] = kLatencyCapMs;
      }
    }
  }
  AutoCeConfig cfg;
  cfg.dml.epochs = 6;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  std::string path = std::string(::testing::TempDir()) + "/degraded.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ModelDigest(), advisor.ModelDigest());
  std::remove(path.c_str());
}

TEST(PersistenceTest, UnfittedAdvisorRefusesToSave) {
  AutoCe advisor;
  EXPECT_FALSE(advisor.Save("/tmp/never.ace").ok());
}

TEST(PersistenceTest, LoadRejectsGarbageFile) {
  std::string path = std::string(::testing::TempDir()) + "/garbage.ace";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a model file", f);
  std::fclose(f);
  auto loaded = AutoCe::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadOfTruncatedFileFailsCleanly) {
  // A crash mid-Save leaves a prefix of the file. Every header byte and
  // a deterministic sample of longer prefixes must yield a clean Status
  // error — never a crash or an OOM-sized allocation.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/trunc.ace";
  ASSERT_TRUE(advisor.Save(path).ok());

  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 256u);

  std::vector<size_t> cuts;
  for (size_t i = 0; i < 64; ++i) cuts.push_back(i);
  Rng rng(2025);
  for (int i = 0; i < 96; ++i) {
    cuts.push_back(static_cast<size_t>(
        rng.UniformInt(64, static_cast<int64_t>(bytes.size()) - 1)));
  }
  std::string cut_path = std::string(::testing::TempDir()) + "/cut.ace";
  for (size_t cut : cuts) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    auto loaded = AutoCe::Load(cut_path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes parsed";
  }
  std::remove(cut_path.c_str());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadNamesTheRetiredLegacyFormat) {
  // Pre-snapshot .ace files (magic "ACE1", versions 2 and 3) are no
  // longer read; Load must say so instead of reporting corruption.
  std::string path = std::string(::testing::TempDir()) + "/legacy.ace";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const unsigned char header[] = {'1', 'E', 'C', 'A', 3, 0, 0, 0, 8, 0, 0, 0};
  ASSERT_EQ(std::fwrite(header, 1, sizeof(header), f), sizeof(header));
  ASSERT_EQ(std::fclose(f), 0);

  auto loaded = AutoCe::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("legacy"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, EverySampledSingleBitFlipIsRejected) {
  // The .ace file is CRC-framed end to end: a flipped bit in any header,
  // length, name, payload, checksum or trailer byte must fail Load with
  // DataLoss rather than load a silently different advisor. Sweeps every
  // bit of the first 64 bytes plus 400 seeded positions across the file.
  TinyCorpus corpus = MakeTinyCorpus(8);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/flip_src.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  const std::string pristine = ReadFileBytes(path);
  ASSERT_GT(pristine.size(), 64u);

  std::vector<size_t> bits;
  for (size_t b = 0; b < 64 * 8; ++b) bits.push_back(b);
  Rng rng(97);
  for (int i = 0; i < 400; ++i) {
    bits.push_back(static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(pristine.size() * 8) - 1)));
  }
  std::string flip_path = std::string(::testing::TempDir()) + "/flip.ace";
  size_t accepted = 0;
  for (size_t bit : bits) {
    std::string bytes = pristine;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
    WriteFileBytes(flip_path, bytes);
    auto loaded = AutoCe::Load(flip_path);
    if (loaded.ok()) {
      ++accepted;
      continue;
    }
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "bit " << bit << ": " << loaded.status().ToString();
  }
  EXPECT_EQ(accepted, 0u) << "of " << bits.size() << " single-bit flips";
  std::remove(flip_path.c_str());
  std::remove(path.c_str());
}

TEST(PersistenceTest, CrcValidButInconsistentSectionsAreDataLoss) {
  // A file can pass every CRC and still disagree with itself (a foreign
  // or hand-edited snapshot). Load must refuse it with DataLoss instead
  // of loading it or tripping an encoder invariant later.
  TinyCorpus corpus = MakeTinyCorpus(8);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/inconsistent.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  auto pristine = util::ReadSnapshotFile(path);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();

  auto payload = [](std::vector<util::SnapshotSection>* sections,
                    const std::string& name) -> std::string* {
    for (auto& s : *sections) {
      if (s.name == name) return &s.payload;
    }
    return nullptr;
  };
  auto expect_data_loss = [&](const std::vector<util::SnapshotSection>& s,
                              const char* what) {
    ASSERT_TRUE(util::WriteSnapshotFile(path, s).ok());
    auto loaded = AutoCe::Load(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << what << ": " << loaded.status().ToString();
  };

  // Swaps the (rows, cols) words of the matrix header at `offset`; the
  // payload size still matches, only the shape is wrong.
  auto transpose_header = [](std::string* bytes, size_t offset) {
    BinaryReader r(bytes->data() + offset, 16);
    uint64_t rows = r.ReadU64();
    uint64_t cols = r.ReadU64();
    ASSERT_NE(rows, cols);
    std::swap_ranges(bytes->begin() + static_cast<ptrdiff_t>(offset),
                     bytes->begin() + static_cast<ptrdiff_t>(offset + 8),
                     bytes->begin() + static_cast<ptrdiff_t>(offset + 8));
  };
  const std::string encoder = *payload(&*pristine, "encoder");
  {
    auto sections = *pristine;
    std::string* rcs = payload(&sections, "rcs");
    BinaryReader r(rcs->data(), rcs->size());
    r.ReadU64();
    size_t name_bytes = r.ReadString().size();
    // RCS count, name length, name, then the vertex matrix header.
    transpose_header(rcs, 16 + name_bytes);
    expect_data_loss(sections, "transposed RCS graph");
  }
  {
    // The encoder's parameters as the best encoder, first one transposed.
    auto sections = *pristine;
    std::string* best = payload(&sections, "best");
    *best = encoder;
    transpose_header(best, 8);
    expect_data_loss(sections, "misshapen best encoder");
  }
  {
    // Only the encoder's first parameter matrix as the best encoder.
    auto sections = *pristine;
    BinaryReader r(encoder.data(), encoder.size());
    r.ReadU64();
    BinaryWriter w;
    w.WriteU64(1);
    w.WriteU64(r.ReadU64());
    w.WriteU64(r.ReadU64());
    w.WriteDoubles(r.ReadDoubles());
    ASSERT_TRUE(r.status().ok());
    *payload(&sections, "best") = w.buffer();
    expect_data_loss(sections, "truncated best encoder");
  }
  {
    // A chunk-training cursor with no best encoder to restore at its end.
    auto sections = *pristine;
    BinaryWriter w;
    w.WriteU64(0);
    *payload(&sections, "best") = w.buffer();
    std::string* cursor = payload(&sections, "cursor");
    ASSERT_NE(cursor, nullptr);
    std::fill(cursor->begin(), cursor->begin() + 4, '\0');  // phase kChunk
    expect_data_loss(sections, "chunk cursor without best encoder");
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedAdvisorSupportsOnlineUpdates) {
  // A .ace carries the full snapshot state (whole config, RNG cursors,
  // training cursor), so an online update applied after Load lands on
  // exactly the bits the same update produces on the advisor that was
  // saved.
  TinyCorpus corpus = MakeTinyCorpus(12);
  AutoCeConfig cfg;
  cfg.dml.epochs = 6;
  cfg.dml.learning_rate = 0.02;
  cfg.gin.hidden = 12;
  cfg.gin.embedding_dim = 6;
  cfg.seed = 1234;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/advisor2.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().seed, 1234u);
  EXPECT_EQ(loaded->config().dml.learning_rate, 0.02);
  EXPECT_EQ(loaded->train_cursor().phase, AutoCe::FitPhase::kDone);

  TinyCorpus extra = MakeTinyCorpus(14);
  ASSERT_TRUE(advisor.AddLabeledSample(extra.graphs[13], extra.labels[13]).ok());
  ASSERT_TRUE(loaded->AddLabeledSample(extra.graphs[13], extra.labels[13]).ok());
  EXPECT_EQ(loaded->ModelDigest(), advisor.ModelDigest());
  std::remove(path.c_str());
}

TEST(PersistenceTest, FailedSaveKeepsThePreviousFile) {
  // Save writes a temp file and renames it into place, so a Save that
  // fails (here: the temp path is occupied by a directory) leaves the
  // previous .ace loadable and unchanged.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/atomic.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  const uint64_t saved_digest = advisor.ModelDigest();

  TinyCorpus extra = MakeTinyCorpus(11);
  ASSERT_TRUE(advisor.AddLabeledSample(extra.graphs[10], extra.labels[10]).ok());
  const std::string tmp = path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  EXPECT_FALSE(advisor.Save(path).ok());
  ::rmdir(tmp.c_str());

  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ModelDigest(), saved_digest);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsMissingFile) {
  auto loaded = AutoCe::Load("/nonexistent/advisor.ace");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace autoce::advisor
