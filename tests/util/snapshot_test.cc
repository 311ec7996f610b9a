#include "util/snapshot.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/serde.h"

namespace autoce::util {
namespace {

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  // Fresh directory per test: remove any leftovers from a prior run.
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<SnapshotSection> MakeSections(const std::string& tag) {
  return {{"alpha", "payload-a-" + tag},
          {"beta", std::string(1000, 'b') + tag},
          {"gamma", ""}};
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
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

TEST(Crc32Test, MatchesKnownVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, SupportsIncrementalComputation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32(data.data(), split);
    part = Crc32(data.data() + split, data.size() - split, part);
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

TEST(SnapshotStoreTest, CommitAndLoadRoundTrip) {
  auto store = SnapshotStore::Open(TempStoreDir("snap_roundtrip"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto sections = MakeSections("one");
  auto gen = store->Commit(sections);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(*gen, 1u);

  uint64_t loaded_gen = 0;
  auto loaded = store->LoadLatest(&loaded_gen);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded_gen, 1u);
  ASSERT_EQ(loaded->size(), sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ((*loaded)[i].name, sections[i].name);
    EXPECT_EQ((*loaded)[i].payload, sections[i].payload);
  }
}

TEST(SnapshotStoreTest, EmptyStoreReportsNotFound) {
  auto store = SnapshotStore::Open(TempStoreDir("snap_empty"));
  ASSERT_TRUE(store.ok());
  auto loaded = store->LoadLatest();
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, GenerationsAreMonotonicAndGcKeepsNewest) {
  SnapshotStoreOptions options;
  options.keep_generations = 3;
  auto store = SnapshotStore::Open(TempStoreDir("snap_gc"), options);
  ASSERT_TRUE(store.ok());
  for (int i = 1; i <= 5; ++i) {
    auto gen = store->Commit(MakeSections(std::to_string(i)));
    ASSERT_TRUE(gen.ok());
    EXPECT_EQ(*gen, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(store->ListGenerations(), (std::vector<uint64_t>{3, 4, 5}));
  auto manifest = store->ManifestGeneration();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, 5u);
}

TEST(SnapshotStoreTest, FallsBackToPreviousGenerationOnBitFlip) {
  auto store = SnapshotStore::Open(TempStoreDir("snap_bitflip"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(MakeSections("good")).ok());
  ASSERT_TRUE(store->Commit(MakeSections("bad")).ok());

  std::string path = store->GenerationPath(2);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(path, bytes);

  // The MANIFEST still points at generation 2, but its file no longer
  // verifies; the load degrades to generation 1.
  uint64_t gen = 0;
  auto loaded = store->LoadLatest(&gen);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ((*loaded)[0].payload, "payload-a-good");
}

TEST(SnapshotStoreTest, TruncationAtEveryByteFailsCleanly) {
  auto store = SnapshotStore::Open(TempStoreDir("snap_trunc"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(MakeSections("t")).ok());
  std::string path = store->GenerationPath(1);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 0u);

  std::string trunc_path = store->dir() + "/truncated.probe";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(trunc_path, bytes.substr(0, len));
    auto sections = ReadSnapshotFile(trunc_path);
    EXPECT_FALSE(sections.ok()) << "prefix of " << len << " bytes parsed";
  }
  // The untruncated file still parses.
  WriteFileBytes(trunc_path, bytes);
  EXPECT_TRUE(ReadSnapshotFile(trunc_path).ok());
  std::remove(trunc_path.c_str());
}

TEST(SnapshotStoreTest, CorruptionFuzzerAlwaysFallsBackToGoodGeneration) {
  auto store = SnapshotStore::Open(TempStoreDir("snap_fuzz"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(MakeSections("stable")).ok());
  ASSERT_TRUE(store->Commit(MakeSections("target")).ok());
  std::string path = store->GenerationPath(2);
  const std::string pristine = ReadFileBytes(path);

  Rng rng(2024);
  for (int iter = 0; iter < 300; ++iter) {
    std::string bytes = pristine;
    if (rng.Bernoulli(0.5)) {
      // Truncate at a sampled offset.
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1)));
    } else {
      // Flip 1-8 sampled bits.
      int flips = static_cast<int>(rng.UniformInt(1, 8));
      for (int i = 0; i < flips; ++i) {
        size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] =
            static_cast<char>(bytes[pos] ^ (1u << rng.UniformInt(0, 7)));
      }
    }
    WriteFileBytes(path, bytes);

    uint64_t gen = 0;
    auto loaded = store->LoadLatest(&gen);
    ASSERT_TRUE(loaded.ok()) << "iter " << iter << ": "
                             << loaded.status().ToString();
    if (gen == 2) {
      // The corruption happened to keep the file verifiable (e.g. a
      // flip and its undo collided) — then the payload must be intact.
      bool found = false;
      for (const auto& s : *loaded) {
        if (s.name == "alpha") {
          EXPECT_EQ(s.payload, "payload-a-target") << "iter " << iter;
          found = true;
        }
      }
      EXPECT_TRUE(found) << "iter " << iter;
    } else {
      EXPECT_EQ(gen, 1u) << "iter " << iter;
      EXPECT_EQ((*loaded)[0].payload, "payload-a-stable") << "iter " << iter;
    }
  }
  WriteFileBytes(path, pristine);
}

TEST(SnapshotFileTest, StandaloneFileIsAStoreGeneration) {
  // WriteSnapshotFile frames exactly like Commit, leaves no temp file
  // behind, and ReadSnapshotFile refuses bytes past the trailer.
  auto store = SnapshotStore::Open(TempStoreDir("snap_standalone"));
  ASSERT_TRUE(store.ok());
  auto sections = MakeSections("file");
  auto gen = store->Commit(sections);
  ASSERT_TRUE(gen.ok());
  std::string path = store->dir() + "/standalone.probe";
  ASSERT_TRUE(WriteSnapshotFile(path, sections).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(store->GenerationPath(*gen)));
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  EXPECT_TRUE(ReadSnapshotFile(path).ok());

  WriteFileBytes(path, ReadFileBytes(path) + '\0');
  auto padded = ReadSnapshotFile(path);
  ASSERT_FALSE(padded.ok());
  EXPECT_EQ(padded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, OpenValidatesArguments) {
  EXPECT_FALSE(SnapshotStore::Open("").ok());
  SnapshotStoreOptions bad;
  bad.keep_generations = 0;
  EXPECT_FALSE(SnapshotStore::Open(TempStoreDir("snap_badopt"), bad).ok());
}

TEST(SnapshotStoreTest, LoadLatestSurvivesConcurrentKeepOneGc) {
  // Regression: a reader racing an aggressive keep-1 GC could open the
  // manifest, lose its snapshot file to a concurrent commit's GC, and
  // fail even though the store held a good newer generation the whole
  // time. LoadLatest now retries while the store demonstrably moves
  // forward, so every load under churn must succeed.
  SnapshotStoreOptions opts;
  opts.keep_generations = 1;
  std::string dir = TempStoreDir("snap_gc_race");
  auto writer = SnapshotStore::Open(dir, opts);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Commit(MakeSections("seed")).ok());
  auto reader = SnapshotStore::Open(dir, opts);
  ASSERT_TRUE(reader.ok());

  std::atomic<bool> done{false};
  std::atomic<int> loads{0};
  std::atomic<int> failures{0};
  std::thread reader_thread([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto loaded = reader->LoadLatest();
      ++loads;
      if (!loaded.ok()) ++failures;
    }
  });
  for (int i = 0; i < 150; ++i) {
    std::string payload = "g";
    payload += std::to_string(i);
    auto gen = writer->Commit(MakeSections(payload));
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
  done.store(true);
  reader_thread.join();
  EXPECT_GT(loads.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST(KillPointTest, DisabledByDefaultAndZeroCost) {
  // Must not fire when nothing is configured.
  KillPoint(kill_sites::kCommitted, 7);
  SUCCEED();
}

TEST(KillPointTest, ConfigureRejectsUnknownSite) {
  EXPECT_FALSE(KillPoints().Configure("no.such.site:1.0").ok());
  KillPoints().Disable();
}

TEST(KillPointTest, AllSitesAreRegistered) {
  auto sites = AllKillSites();
  ASSERT_EQ(sites.size(), 11u);
  for (const char* site : sites) {
    EXPECT_TRUE(KillPoints().Configure(site).ok()) << site;
    KillPoints().Disable();
  }
}

TEST(KillPointDeathTest, FiringSiteExitsWithKillCode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto store = SnapshotStore::Open(TempStoreDir("snap_kill"));
  ASSERT_TRUE(store.ok());
  EXPECT_EXIT(
      {
        ASSERT_TRUE(KillPoints().Configure(kill_sites::kTmpSynced).ok());
        (void)store->Commit(MakeSections("killed"));
      },
      ::testing::ExitedWithCode(kKillExitCode), "AUTOCE_KILLPOINT fired");
}

/// One death test per store-level kill site: the child process dies
/// mid-commit of generation 2, the parent then observes the directory
/// exactly as the crashed process left it and proves recovery.
class KillSiteRecoveryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KillSiteRecoveryTest, DeathMidCommitLeavesStoreRecoverable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* site = GetParam();
  std::string dir = TempStoreDir(std::string("snap_die_") + site);
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(MakeSections("before")).ok());

  EXPECT_EXIT(
      {
        ASSERT_TRUE(KillPoints().Configure(site).ok());
        (void)store->Commit(MakeSections("after"));
      },
      ::testing::ExitedWithCode(kKillExitCode), "AUTOCE_KILLPOINT fired")
      << site;

  uint64_t gen = 0;
  auto loaded = store->LoadLatest(&gen);
  ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status().ToString();
  ASSERT_FALSE(loaded->empty());
  const std::string& payload = (*loaded)[0].payload;
  // Crash-atomicity: either the old or the new generation is installed,
  // never a torn state. Before the MANIFEST rename (the commit point)
  // the old snapshot must win; after it, the new one.
  bool pre_commit_point = std::string(site) == kill_sites::kTmpPartial ||
                          std::string(site) == kill_sites::kTmpSynced ||
                          std::string(site) == kill_sites::kRenamed ||
                          std::string(site) == kill_sites::kManifestTmp;
  EXPECT_EQ(payload,
            pre_commit_point ? "payload-a-before" : "payload-a-after")
      << site << " -> generation " << gen;

  // A fresh commit after recovery always works and GC clears debris.
  ASSERT_TRUE(store->Commit(MakeSections("recovered")).ok()) << site;
  auto reloaded = store->LoadLatest();
  ASSERT_TRUE(reloaded.ok()) << site;
  EXPECT_EQ((*reloaded)[0].payload, "payload-a-recovered") << site;
}

INSTANTIATE_TEST_SUITE_P(
    AllStoreSites, KillSiteRecoveryTest,
    ::testing::Values(kill_sites::kTmpPartial, kill_sites::kTmpSynced,
                      kill_sites::kRenamed, kill_sites::kManifestTmp,
                      kill_sites::kCommitted, kill_sites::kGcDone),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

/// Injected-ENOSPC and disk-budget behaviour: every refused or failed
/// commit must leave the previous generation installed and loadable.
class SnapshotDiskFailureTest : public ::testing::Test {
 protected:
  void TearDown() override { Faults().Disable(); }
};

TEST_F(SnapshotDiskFailureTest, EnospcDuringSnapshotWriteKeepsPreviousGen) {
  std::string dir = TempStoreDir("snap_enospc_write");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(MakeSections("good")).ok());

  ASSERT_TRUE(Faults()
                  .Configure(std::string(fault_sites::kSnapshotWrite) + ":1")
                  .ok());
  auto failed = store->Commit(MakeSections("doomed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("No space left on device"),
            std::string::npos)
      << "errno string missing: " << failed.status().message();
  Faults().Disable();

  // No torn temp file left behind, MANIFEST still points at the good
  // generation, and it loads.
  uint64_t loaded_gen = 0;
  auto reloaded = store->LoadLatest(&loaded_gen);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)[0].payload, "payload-a-good");
  auto manifest = store->ManifestGeneration();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, loaded_gen);
  EXPECT_EQ(store->ListGenerations().size(), 1u);
}

TEST_F(SnapshotDiskFailureTest, EnospcDuringManifestWriteRollsBackOrphan) {
  std::string dir = TempStoreDir("snap_enospc_manifest");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto good = store->Commit(MakeSections("good"));
  ASSERT_TRUE(good.ok());

  ASSERT_TRUE(
      Faults()
          .Configure(std::string(fault_sites::kSnapshotManifest) + ":1")
          .ok());
  auto failed = store->Commit(MakeSections("doomed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("No space left on device"),
            std::string::npos)
      << failed.status().message();
  Faults().Disable();

  // The orphan snapshot (renamed but never manifested) was rolled back:
  // the store holds exactly the good generation and loads it.
  EXPECT_EQ(store->ListGenerations(), std::vector<uint64_t>{*good});
  auto manifest = store->ManifestGeneration();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, *good);
  auto reloaded = store->LoadLatest();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)[0].payload, "payload-a-good");

  // The store recovers fully once space is back.
  auto next = store->Commit(MakeSections("after"));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, *good);
}

TEST_F(SnapshotDiskFailureTest, DiskBudgetRefusesBeforeWriting) {
  auto& metrics = obs::MetricsRegistry::Instance();
  metrics.Enable();
  obs::Counter* rejects = metrics.GetCounter("snapshot.budget_rejects");
  int64_t rejects_before = rejects->value();

  std::string dir = TempStoreDir("snap_disk_budget");
  SnapshotStoreOptions options;
  options.keep_generations = 2;
  auto unbounded = SnapshotStore::Open(dir, options);
  ASSERT_TRUE(unbounded.ok());
  auto good = unbounded->Commit(MakeSections("good"));
  ASSERT_TRUE(good.ok());

  // A budget smaller than one committed generation: the next commit
  // must refuse up front, leaving file set and MANIFEST untouched.
  struct ::stat st;
  ASSERT_EQ(::stat(unbounded->GenerationPath(*good).c_str(), &st), 0);
  options.disk_budget_bytes = static_cast<uint64_t>(st.st_size);
  auto bounded = SnapshotStore::Open(dir, options);
  ASSERT_TRUE(bounded.ok());

  auto refused = bounded->Commit(MakeSections("too-big"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejects->value(), rejects_before + 1);
  EXPECT_EQ(bounded->ListGenerations(), std::vector<uint64_t>{*good});
  auto reloaded = bounded->LoadLatest();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)[0].payload, "payload-a-good");

  // A budget with room for the keep-N footprint admits the commit.
  options.disk_budget_bytes = static_cast<uint64_t>(st.st_size) * 4;
  auto roomy = SnapshotStore::Open(dir, options);
  ASSERT_TRUE(roomy.ok());
  EXPECT_TRUE(roomy->Commit(MakeSections("fits")).ok());
}

}  // namespace
}  // namespace autoce::util
