#include "dyn/regime.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dyn/mutation.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace autoce::dyn {
namespace {

data::DatasetGenParams SmallBase() {
  data::DatasetGenParams base;
  base.min_rows = 60;
  base.max_rows = 100;
  base.min_columns = 2;
  base.max_columns = 2;
  base.min_domain = 10;
  base.max_domain = 60;
  return base;
}

TEST(RegimeTest, GridIsTheFullCrossProduct) {
  RegimeAxes axes;
  const auto grid = RegimeGrid(axes, SmallBase());
  const std::size_t expected = axes.table_counts.size() * axes.skews.size() *
                               axes.correlations.size() *
                               axes.fanout_skews.size() *
                               axes.drift_intensities.size();
  EXPECT_EQ(grid.size(), expected);

  std::set<std::string> names;
  for (const auto& cell : grid) names.insert(cell.regime.Name());
  EXPECT_EQ(names.size(), grid.size()) << "regime names must be unique";
}

TEST(RegimeTest, CellsRealizeTheirAxisLevels) {
  RegimeAxes axes;
  const auto grid = RegimeGrid(axes, SmallBase());
  for (const auto& cell : grid) {
    const auto& r = cell.regime;
    EXPECT_EQ(cell.gen.min_tables, axes.table_counts[r.tables]);
    EXPECT_EQ(cell.gen.max_tables, axes.table_counts[r.tables]);
    EXPECT_DOUBLE_EQ(cell.gen.max_skew, axes.skews[r.skew]);
    EXPECT_DOUBLE_EQ(cell.gen.max_correlation, axes.correlations[r.correlation]);
    EXPECT_DOUBLE_EQ(cell.gen.max_fanout_skew, axes.fanout_skews[r.fanout]);
    EXPECT_DOUBLE_EQ(cell.drift.intensity, axes.drift_intensities[r.drift]);
  }
}

TEST(RegimeTest, VectorNameEncodesEveryAxis) {
  RegimeVector r;
  r.tables = 1;
  r.skew = 0;
  r.correlation = 1;
  r.fanout = 0;
  r.drift = 1;
  EXPECT_EQ(r.Name(), "T1.S0.C1.F0.D1");
}

TEST(RegimeTest, CorpusIsDeterministicAcrossThreadCounts) {
  // Shrink to one level per data axis so the test stays fast; keep both
  // drift levels so the drift axis is still exercised.
  RegimeAxes axes;
  axes.table_counts = {2};
  axes.skews = {0.8};
  axes.correlations = {0.5};
  axes.fanout_skews = {1.0};

  std::vector<std::vector<uint64_t>> runs;
  for (int threads : {1, 4}) {
    util::SetGlobalParallelism(threads);
    Rng rng(314);
    const auto corpus = GenerateRegimeCorpus(axes, SmallBase(), 2, &rng);
    std::vector<uint64_t> fps;
    for (const auto& rd : corpus) fps.push_back(DatasetFingerprint(rd.dataset));
    runs.push_back(std::move(fps));
  }
  util::SetGlobalParallelism(util::DefaultParallelism());
  ASSERT_EQ(runs[0].size(), runs[1].size());
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(RegimeTest, CorpusDatasetsCarryTagsAndDriftModels) {
  RegimeAxes axes;
  axes.table_counts = {1, 2};
  axes.skews = {0.5};
  axes.correlations = {0.5};
  axes.fanout_skews = {0.5};
  Rng rng(99);
  const auto corpus = GenerateRegimeCorpus(axes, SmallBase(), 2, &rng);
  ASSERT_EQ(corpus.size(), 2u * 2u * 2u);  // tables x drift x per_cell
  for (const auto& rd : corpus) {
    EXPECT_EQ(static_cast<int>(rd.dataset.tables().size()),
              axes.table_counts[rd.regime.tables]);
    EXPECT_DOUBLE_EQ(rd.drift.intensity,
                     axes.drift_intensities[rd.regime.drift]);
    // The dataset name embeds the regime tag for bench JSON keys.
    EXPECT_NE(rd.dataset.name().find(rd.regime.Name()), std::string::npos);
  }
}

}  // namespace
}  // namespace autoce::dyn
