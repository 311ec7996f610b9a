#ifndef AUTOCE_DATA_CSV_H_
#define AUTOCE_DATA_CSV_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"

namespace autoce::data {

/// Options for CSV import.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Name given to the loaded table (defaults to the file stem).
  std::string table_name;
  /// Integer columns keep value order: one whose values span fewer than
  /// this many integers is shifted into [1, max - min + 1], a wider one
  /// is coded by the rank of each value among its distinct values.
  /// Other columns are dictionary-encoded in order of first appearance.
  /// A column with more distinct values than this fails the load.
  int32_t max_domain = 100000;
  /// When true, malformed rows (wrong field count, control characters,
  /// injected faults) are dropped and reported through `CsvReport`
  /// instead of failing the whole load. Default is strict: any
  /// malformed row fails the load with bounded diagnostics.
  bool skip_malformed_rows = false;
  /// Upper bound on per-row diagnostics kept in errors/messages; later
  /// malformed rows are only counted. Must be >= 1.
  int max_errors = 5;
};

/// One malformed-row diagnostic.
struct CsvError {
  int64_t row = 0;    ///< 1-based physical line number in the file
  int column = -1;    ///< 0-based column index; -1 for row-level errors
  std::string message;
};

/// Ingestion report: what was loaded, what was dropped, and why. The
/// `errors` list is bounded by `CsvOptions::max_errors`;
/// `errors_total` counts every malformed row seen.
struct CsvReport {
  int64_t rows_loaded = 0;
  int64_t rows_skipped = 0;
  int64_t errors_total = 0;
  std::vector<CsvError> errors;
};

/// \brief Loads one CSV file as a `Table`.
///
/// AutoCE operates on integer-coded columns (see data/dataset.h); this
/// loader brings external data into that representation: integer columns
/// keep value order, so range predicates remain meaningful (see
/// `CsvOptions::max_domain`), and everything else is dictionary-encoded
/// by first appearance. A missing value in an integer column becomes
/// code 1; in any other column it is one more dictionary entry.
///
/// Malformed rows never abort the process: in strict mode (default) the
/// load fails with a Status carrying the first `max_errors` row/column
/// diagnostics; with `skip_malformed_rows` the bad rows are dropped and
/// reported via `report` (optional), and the load succeeds as long as
/// at least one valid data row remains.
Result<Table> LoadCsvTable(const std::string& path,
                           const CsvOptions& options = {},
                           CsvReport* report = nullptr);

/// Binary round-trip of whole datasets (schema + data + FK edges), used
/// by the CLI to pass corpora between `generate`, `label`, and
/// `recommend` steps. `SaveDataset` replaces `path` atomically (temp
/// file, fsync, rename, directory fsync), so a failed or interrupted
/// save leaves the previous file. `LoadDataset` returns an error for a
/// truncated or corrupt file and for a dataset `Dataset::Validate`
/// rejects.
Status SaveDataset(const Dataset& dataset, const std::string& path);
Result<Dataset> LoadDataset(const std::string& path);

}  // namespace autoce::data

#endif  // AUTOCE_DATA_CSV_H_
