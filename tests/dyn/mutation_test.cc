#include "dyn/mutation.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "data/generator.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace autoce::dyn {
namespace {

data::Dataset MakeDataset(uint64_t seed, int min_tables = 2,
                          int max_tables = 3) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = min_tables;
  p.max_tables = max_tables;
  p.min_rows = 80;
  p.max_rows = 160;
  p.min_columns = 2;
  p.max_columns = 3;
  p.min_domain = 10;
  p.max_domain = 120;
  return data::GenerateDataset(p, &rng);
}

TEST(MutationTest, EpochAdvancesStampsAndValidates) {
  data::Dataset ds = MakeDataset(7);
  const uint64_t fp0 = DatasetFingerprint(ds);
  EXPECT_EQ(ds.epoch(), 0u);
  EXPECT_EQ(ds.base_fingerprint(), 0u);

  MutationConfig cfg;
  auto report = ApplyEpoch(&ds, cfg);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->epoch, 1u);
  EXPECT_EQ(ds.epoch(), 1u);
  EXPECT_EQ(ds.base_fingerprint(), fp0);
  EXPECT_GT(report->rows_inserted + report->rows_deleted +
                report->values_shifted,
            0);
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_NE(DatasetFingerprint(ds), fp0);
}

TEST(MutationTest, ZeroIntensityOnlyAdvancesTheEpochCounter) {
  data::Dataset ds = MakeDataset(8);
  const uint64_t fp0 = DatasetFingerprint(ds);
  MutationConfig cfg;
  cfg.intensity = 0.0;
  auto report = ApplyEpochs(&ds, cfg, 4);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ds.epoch(), 4u);
  EXPECT_EQ(report->rows_inserted, 0);
  EXPECT_EQ(report->rows_deleted, 0);
  EXPECT_EQ(report->values_shifted, 0);
  EXPECT_EQ(DatasetFingerprint(ds), fp0);
}

TEST(MutationTest, BitIdenticalAcrossThreadCounts) {
  std::vector<uint64_t> fingerprints;
  std::vector<uint64_t> epochs;
  for (int threads : {1, 2, 8}) {
    util::SetGlobalParallelism(threads);
    data::Dataset ds = MakeDataset(11);
    MutationConfig cfg;
    cfg.intensity = 1.5;
    auto report = ApplyEpochs(&ds, cfg, 3);
    ASSERT_TRUE(report.ok());
    fingerprints.push_back(DatasetFingerprint(ds));
    epochs.push_back(ds.epoch());
  }
  util::SetGlobalParallelism(util::DefaultParallelism());
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_EQ(epochs[0], 3u);
  EXPECT_EQ(epochs[1], 3u);
  EXPECT_EQ(epochs[2], 3u);
}

TEST(MutationTest, SerdeRoundTripResumesTheSameStream) {
  // One-shot: 3 epochs straight through.
  data::Dataset oneshot = MakeDataset(23);
  MutationConfig cfg;
  ASSERT_TRUE(ApplyEpochs(&oneshot, cfg, 3).ok());

  // Resumed: 1 epoch, save, load, 2 more epochs. The .adat file carries
  // (epoch, base_fingerprint), so the stream picks up where it left off.
  data::Dataset staged = MakeDataset(23);
  ASSERT_TRUE(ApplyEpoch(&staged, cfg).ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/dyn_mutation_resume.adat";
  ASSERT_TRUE(data::SaveDataset(staged, path).ok());
  auto loaded = data::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  std::remove(path.c_str());
  EXPECT_EQ(loaded->epoch(), 1u);
  EXPECT_EQ(loaded->base_fingerprint(), staged.base_fingerprint());
  ASSERT_TRUE(ApplyEpochs(&*loaded, cfg, 2).ok());

  EXPECT_EQ(DatasetFingerprint(*loaded), DatasetFingerprint(oneshot));
  EXPECT_EQ(loaded->epoch(), oneshot.epoch());
}

// Property sweep: many epochs at high intensity never break dataset
// invariants. Schema and FK edges must be untouched (generated join
// graphs are trees, and engine::TrueCardinality rejects non-trees, so
// edge preservation IS tree preservation), Validate() must hold, and no
// table may shrink below the configured floor.
TEST(MutationTest, PropertyEpochsPreserveSchemaAndValidity) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    data::Dataset ds = MakeDataset(seed, 1, 4);
    const auto fks_before = ds.foreign_keys();
    std::vector<std::size_t> cols_before;
    for (const auto& t : ds.tables()) cols_before.push_back(t.columns.size());

    MutationConfig cfg;
    cfg.intensity = 2.0;
    auto report = ApplyEpochs(&ds, cfg, 5);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().message();
    ASSERT_TRUE(ds.Validate().ok()) << "seed " << seed;

    ASSERT_EQ(ds.foreign_keys().size(), fks_before.size());
    for (std::size_t i = 0; i < fks_before.size(); ++i) {
      EXPECT_EQ(ds.foreign_keys()[i], fks_before[i]);
    }
    if (ds.tables().size() > 1) {
      // Spanning tree on N tables has exactly N-1 edges.
      EXPECT_EQ(ds.foreign_keys().size(), ds.tables().size() - 1);
    }
    ASSERT_EQ(ds.tables().size(), cols_before.size());
    for (std::size_t t = 0; t < ds.tables().size(); ++t) {
      EXPECT_EQ(ds.tables()[t].columns.size(), cols_before[t]);
      EXPECT_GE(ds.tables()[t].NumRows(), cfg.min_rows);
    }
  }
}

TEST(MutationTest, EpochStreamIsPinned) {
  // Three epochs at full and at half intensity: every op kind fires at
  // both, so the fingerprints pin the fractions, the shift skew and the
  // draw order of the whole mutation stream.
  const std::pair<double, uint64_t> pins[] = {
      {1.0, 0xE951A8CFDCDE02F9ULL},
      {0.5, 0x21C224C6C349EEA0ULL},
  };
  for (const auto& [intensity, fingerprint] : pins) {
    data::Dataset ds = MakeDataset(7, 3, 4);
    MutationConfig cfg;
    cfg.intensity = intensity;
    auto report = ApplyEpochs(&ds, cfg, 3);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_GT(report->rows_inserted, 0);
    EXPECT_GT(report->rows_deleted, 0);
    EXPECT_GT(report->values_shifted, 0);
    EXPECT_EQ(DatasetFingerprint(ds), fingerprint) << intensity;
  }
}

}  // namespace
}  // namespace autoce::dyn
