#include "dyn/regime.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel.h"

namespace autoce::dyn {

std::string RegimeVector::Name() const {
  std::string name = "T";
  name += std::to_string(tables);
  name += ".S";
  name += std::to_string(skew);
  name += ".C";
  name += std::to_string(correlation);
  name += ".F";
  name += std::to_string(fanout);
  name += ".D";
  name += std::to_string(drift);
  return name;
}

std::vector<RegimeCell> RegimeGrid(const RegimeAxes& axes,
                                   const data::DatasetGenParams& base) {
  AUTOCE_CHECK(!axes.table_counts.empty() && !axes.skews.empty() &&
               !axes.correlations.empty() && !axes.fanout_skews.empty() &&
               !axes.drift_intensities.empty());
  std::vector<RegimeCell> grid;
  grid.reserve(axes.table_counts.size() * axes.skews.size() *
               axes.correlations.size() * axes.fanout_skews.size() *
               axes.drift_intensities.size());
  for (size_t t = 0; t < axes.table_counts.size(); ++t) {
    for (size_t s = 0; s < axes.skews.size(); ++s) {
      for (size_t c = 0; c < axes.correlations.size(); ++c) {
        for (size_t f = 0; f < axes.fanout_skews.size(); ++f) {
          for (size_t d = 0; d < axes.drift_intensities.size(); ++d) {
            RegimeCell cell;
            cell.regime = {static_cast<int>(t), static_cast<int>(s),
                           static_cast<int>(c), static_cast<int>(f),
                           static_cast<int>(d)};
            cell.gen = base;
            cell.gen.min_tables = axes.table_counts[t];
            cell.gen.max_tables = axes.table_counts[t];
            cell.gen.max_skew = axes.skews[s];
            cell.gen.max_correlation = axes.correlations[c];
            cell.gen.max_fanout_skew = axes.fanout_skews[f];
            cell.drift.intensity = axes.drift_intensities[d];
            grid.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return grid;
}

std::vector<RegimeDataset> GenerateRegimeCorpus(
    const RegimeAxes& axes, const data::DatasetGenParams& base, int per_cell,
    Rng* rng) {
  AUTOCE_CHECK(per_cell >= 1);
  std::vector<RegimeCell> grid = RegimeGrid(axes, base);
  const size_t total = grid.size() * static_cast<size_t>(per_cell);
  // Fork sequentially, generate in parallel — dataset i depends only on
  // its own pre-forked child generator.
  std::vector<Rng> children;
  children.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    children.push_back(rng->Fork(static_cast<uint64_t>(i)));
  }
  return util::ParallelMap(0, total, 1, [&](size_t i) {
    const RegimeCell& cell = grid[i / static_cast<size_t>(per_cell)];
    const size_t instance = i % static_cast<size_t>(per_cell);
    data::DatasetGenParams p = cell.gen;
    p.name = base.name + "_" + cell.regime.Name() + "_" +
             std::to_string(instance);
    RegimeDataset out;
    out.dataset = data::GenerateDataset(p, &children[i]);
    out.regime = cell.regime;
    out.drift = cell.drift;
    return out;
  });
}

}  // namespace autoce::dyn
