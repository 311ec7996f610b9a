#ifndef AUTOCE_DYN_REGIME_H_
#define AUTOCE_DYN_REGIME_H_

#include <string>
#include <vector>

#include "data/generator.h"
#include "dyn/mutation.h"
#include "util/rng.h"

namespace autoce::dyn {

inline constexpr int kNumRegimeAxes = 5;

/// \brief The CardBench-style regime tag of a dataset: one level index
/// per evaluation axis. Levels index into `RegimeAxes`; `Name()` renders
/// the compact "T0.S1.C0.F1.D2" form benches key their JSON on.
struct RegimeVector {
  int tables = 0;
  int skew = 0;
  int correlation = 0;
  int fanout = 0;
  int drift = 0;

  std::string Name() const;
  bool operator==(const RegimeVector& o) const = default;
};

/// Level values per axis. A regime cell is one pick per axis; the grid
/// is the cross product. Defaults give 2 levels on every data axis and
/// 2 drift levels (static + drifting) — 32 cells.
struct RegimeAxes {
  std::vector<int> table_counts{1, 4};
  std::vector<double> skews{0.2, 1.6};
  std::vector<double> correlations{0.2, 0.9};
  std::vector<double> fanout_skews{0.0, 2.5};
  std::vector<double> drift_intensities{0.0, 2.0};
};

/// One resolved grid cell: the tag, the generator parameters that
/// realize its data axes, and the drift model realizing its drift axis.
struct RegimeCell {
  RegimeVector regime;
  data::DatasetGenParams gen;
  MutationConfig drift;
};

/// Expands `axes` into the full cross-product grid, specializing `base`
/// per cell (table count pinned, skew/correlation/fanout upper bounds
/// set to the level value, drift intensity copied into the mutation
/// config). Cell order is row-major in axis order — deterministic.
std::vector<RegimeCell> RegimeGrid(const RegimeAxes& axes,
                                   const data::DatasetGenParams& base);

/// A generated dataset carrying its regime tag and drift model.
struct RegimeDataset {
  data::Dataset dataset;
  RegimeVector regime;
  MutationConfig drift;
};

/// Generates `per_cell` datasets for every grid cell (pre-forked
/// per-dataset generators + ParallelMap, so the corpus is bit-identical
/// at any `AUTOCE_THREADS`). Dataset d of cell c is named
/// "<base.name>_<regime>_<d>".
std::vector<RegimeDataset> GenerateRegimeCorpus(
    const RegimeAxes& axes, const data::DatasetGenParams& base, int per_cell,
    Rng* rng);

}  // namespace autoce::dyn

#endif  // AUTOCE_DYN_REGIME_H_
