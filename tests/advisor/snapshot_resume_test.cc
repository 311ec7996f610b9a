#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/snapshot.h"

namespace autoce::advisor {
namespace {

struct SmallCorpus {
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<DatasetLabel> labels;
};

SmallCorpus MakeSmallCorpus(int n, uint64_t seed) {
  SmallCorpus out;
  featgraph::FeatureExtractor fx;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    data::DatasetGenParams p;
    p.min_tables = 1;
    p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 220;
    Rng child = rng.Fork(static_cast<uint64_t>(i));
    out.graphs.push_back(fx.Extract(data::GenerateDataset(p, &child)));
    DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
      label.qerror_mean[m] = child.Uniform(1.0, 40.0);
      label.latency_ms[m] = child.Uniform(0.1, 130.0);
    }
    out.labels.push_back(label);
  }
  return out;
}

AutoCeConfig SmallConfig() {
  AutoCeConfig cfg;
  cfg.dml.epochs = 8;
  cfg.validation_interval = 2;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void CopyFile(const std::string& from, const std::string& to) {
  FILE* in = std::fopen(from.c_str(), "rb");
  ASSERT_NE(in, nullptr) << from;
  FILE* out = std::fopen(to.c_str(), "wb");
  ASSERT_NE(out, nullptr) << to;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  ASSERT_EQ(std::fclose(out), 0);
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

TEST(SnapshotResumeTest, SnapshottingDoesNotChangeTheFittedModel) {
  SmallCorpus corpus = MakeSmallCorpus(14, 11);
  AutoCe plain(SmallConfig());
  ASSERT_TRUE(plain.Fit(corpus.graphs, corpus.labels).ok());

  AutoCe snapshotted(SmallConfig());
  ASSERT_TRUE(
      snapshotted.EnableSnapshots(FreshDir("resume_nochange")).ok());
  ASSERT_TRUE(snapshotted.Fit(corpus.graphs, corpus.labels).ok());

  EXPECT_EQ(plain.ModelDigest(), snapshotted.ModelDigest());
  EXPECT_EQ(snapshotted.train_cursor().phase, AutoCe::FitPhase::kDone);
}

TEST(SnapshotResumeTest, FitCommitsGenerationsAtEveryCheckpoint) {
  SmallCorpus corpus = MakeSmallCorpus(14, 11);
  std::string dir = FreshDir("resume_gens");
  util::SnapshotStoreOptions options;
  options.keep_generations = 64;
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // 8 epochs / interval 2 = 4 chunks, plus the initial, the
  // incremental-learning transition, and the final checkpoint.
  EXPECT_EQ(store->ListGenerations().size(), 7u);
  auto manifest = store->ManifestGeneration();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, 7u);
}

TEST(SnapshotResumeTest, ResumeFromDoneRestoresBitIdenticalModel) {
  SmallCorpus corpus = MakeSmallCorpus(14, 13);
  std::string dir = FreshDir("resume_done");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
  EXPECT_EQ(resumed->train_cursor().phase, AutoCe::FitPhase::kDone);
  EXPECT_DOUBLE_EQ(resumed->DriftThreshold(), advisor.DriftThreshold());

  // The restored advisor recommends identically.
  SmallCorpus probes = MakeSmallCorpus(4, 99);
  for (const auto& g : probes.graphs) {
    auto a = advisor.Recommend(g, 0.7);
    auto b = resumed->Recommend(g, 0.7);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->model, b->model);
    EXPECT_EQ(a->neighbors, b->neighbors);
  }
}

TEST(SnapshotResumeTest, ResumeFromEveryGenerationReachesIdenticalModel) {
  // Simulates a kill after each checkpoint: a directory holding only the
  // generations up to g (and no MANIFEST, as if the crash predated the
  // MANIFEST update) must resume to the bit-identical final model.
  SmallCorpus corpus = MakeSmallCorpus(14, 17);
  std::string dir = FreshDir("resume_every");
  util::SnapshotStoreOptions options;
  options.keep_generations = 64;
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  const uint64_t baseline = advisor.ModelDigest();

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  std::vector<uint64_t> gens = store->ListGenerations();
  ASSERT_GE(gens.size(), 3u);
  for (uint64_t g : gens) {
    std::string partial_dir =
        FreshDir("resume_every_gen" + std::to_string(g));
    auto partial = util::SnapshotStore::Open(partial_dir, options);
    ASSERT_TRUE(partial.ok());
    CopyFile(store->GenerationPath(g), partial->GenerationPath(g));

    auto resumed = AutoCe::ResumeFit(partial_dir, options);
    ASSERT_TRUE(resumed.ok())
        << "generation " << g << ": " << resumed.status().ToString();
    EXPECT_EQ(resumed->ModelDigest(), baseline) << "generation " << g;
    EXPECT_EQ(resumed->train_cursor().phase, AutoCe::FitPhase::kDone);
  }
}

TEST(SnapshotResumeTest, AceFileIsTheFinalSnapshotGeneration) {
  // One encoding: Save writes the bytes the store committed as the final
  // generation, and either file restores the advisor through the other
  // path (Load of a generation file, ResumeFit of a store seeded with
  // the .ace).
  SmallCorpus corpus = MakeSmallCorpus(14, 29);
  std::string dir = FreshDir("ace_is_generation");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string ace = std::string(::testing::TempDir()) + "/generation.ace";
  ASSERT_TRUE(advisor.Save(ace).ok());

  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto final_gen = store->ManifestGeneration();
  ASSERT_TRUE(final_gen.ok());
  EXPECT_EQ(ReadFileBytes(ace),
            ReadFileBytes(store->GenerationPath(*final_gen)));
  // A finished fit carries no second encoder: `best` is an empty list.
  auto sections = util::ReadSnapshotFile(ace);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  for (const auto& s : *sections) {
    if (s.name == "best") {
      EXPECT_EQ(s.payload, std::string(8, '\0'));
    }
  }

  auto loaded = AutoCe::Load(store->GenerationPath(*final_gen));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ModelDigest(), advisor.ModelDigest());

  std::string seeded_dir = FreshDir("ace_seeded_store");
  auto seeded = util::SnapshotStore::Open(seeded_dir);
  ASSERT_TRUE(seeded.ok());
  CopyFile(ace, seeded->GenerationPath(1));
  auto resumed = AutoCe::ResumeFit(seeded_dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
  EXPECT_EQ(resumed->train_cursor().phase, AutoCe::FitPhase::kDone);
  std::remove(ace.c_str());
}

TEST(SnapshotResumeTest, PlainPathResumesFromInitialSnapshot) {
  SmallCorpus corpus = MakeSmallCorpus(12, 19);
  AutoCeConfig cfg = SmallConfig();
  cfg.validation_interval = 0;  // plain Algorithm 1
  std::string dir = FreshDir("resume_plain");
  util::SnapshotStoreOptions options;
  options.keep_generations = 8;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  const uint64_t baseline = advisor.ModelDigest();

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // Generation 1 is the pre-training snapshot (phase kPlain).
  std::string partial_dir = FreshDir("resume_plain_gen1");
  auto partial = util::SnapshotStore::Open(partial_dir, options);
  ASSERT_TRUE(partial.ok());
  CopyFile(store->GenerationPath(1), partial->GenerationPath(1));
  auto resumed = AutoCe::ResumeFit(partial_dir, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ModelDigest(), baseline);
}

TEST(SnapshotResumeTest, OnlineUpdatesCommitAndRestore) {
  SmallCorpus corpus = MakeSmallCorpus(12, 23);
  std::string dir = FreshDir("resume_online");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto before = store->ManifestGeneration();
  ASSERT_TRUE(before.ok());

  SmallCorpus extra = MakeSmallCorpus(1, 71);
  ASSERT_TRUE(
      advisor.AddLabeledSample(extra.graphs[0], extra.labels[0]).ok());
  auto after = store->ManifestGeneration();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before + 1);

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->RcsSize(), advisor.RcsSize());
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
}

TEST(SnapshotResumeTest, ResumeFromEmptyDirReportsNotFound) {
  auto resumed = AutoCe::ResumeFit(FreshDir("resume_nothing"));
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace autoce::advisor
