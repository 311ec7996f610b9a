#ifndef AUTOCE_DYN_MUTATION_H_
#define AUTOCE_DYN_MUTATION_H_

#include <cstdint>

#include "data/dataset.h"
#include "util/result.h"

namespace autoce::dyn {

/// Content fingerprint of a dataset (FNV-1a over schema, values, and FK
/// edges; the name is excluded so renamed copies drift identically).
/// This is the seed root of the mutation stream: every epoch's ops are a
/// pure function of (fingerprint of the epoch-0 snapshot, epoch number).
uint64_t DatasetFingerprint(const data::Dataset& ds);

/// The synthetic drift model (DESIGN.md §5.14): per epoch, 4% of each
/// table's rows appended, 2% deleted from tables no FK references
/// (deleting referenced parents would orphan FK values), and 8% of one
/// non-key column's values re-drawn (the column rotates with the epoch
/// number). Appended and re-drawn values come from a skew-2 Pareto
/// mirrored to the TOP of the domain, so the hot region flips away from
/// where snapshot-trained models learned it. One `intensity` knob
/// scales the three fractions so a regime axis can sweep drift with a
/// single number; `intensity == 0` makes `ApplyEpoch` advance the
/// epoch counter without touching any data (the static-regime control).
struct MutationConfig {
  /// Global multiplier applied to the three fractions.
  double intensity = 1.0;
  /// Deletes never shrink a table below this many rows.
  int64_t min_rows = 16;
};

/// What one `ApplyEpoch` did (summed across tables; `ApplyEpochs` sums
/// across epochs and reports the final epoch).
struct EpochReport {
  uint64_t epoch = 0;  ///< dataset epoch after the mutation
  int64_t rows_inserted = 0;
  int64_t rows_deleted = 0;
  int64_t values_shifted = 0;
};

/// \brief Applies one mutation epoch to `ds` in place.
///
/// Deterministic by construction: the op stream is seeded from
/// (base fingerprint, next epoch) only, and tables mutate under
/// pre-forked per-table generators (the `GenerateCorpus` pattern), so
/// the result is bit-identical at any `AUTOCE_THREADS` and across a
/// serialize/deserialize round-trip (the epoch state rides in the .adat
/// file). On the first call the dataset's `base_fingerprint` is stamped
/// from its current content.
///
/// Schema (tables, columns, FK edges) never changes, so a tree join
/// graph stays a tree; inserts extend PK domains with fresh distinct
/// ids and draw FK values from the parent's epoch-start PK set, and FK
/// column domains are re-synced to the parent PK domain afterwards —
/// `Validate()` holds after every epoch (checked; a violation surfaces
/// as Internal instead of corrupting downstream consumers).
Result<EpochReport> ApplyEpoch(data::Dataset* ds, const MutationConfig& config);

/// Applies `epochs` consecutive epochs; the report sums the op counts.
Result<EpochReport> ApplyEpochs(data::Dataset* ds, const MutationConfig& config,
                                int epochs);

}  // namespace autoce::dyn

#endif  // AUTOCE_DYN_MUTATION_H_
