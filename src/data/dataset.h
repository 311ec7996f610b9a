#ifndef AUTOCE_DATA_DATASET_H_
#define AUTOCE_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace autoce::data {

/// \brief A single integer-coded column.
///
/// All data in the library is domain-coded to int32 values in
/// [1, domain_size]; categorical and numeric semantics are both modeled by
/// the value order (range predicates operate on the coded values). This
/// mirrors the preprocessing every learned CE system applies (dictionary /
/// bin encoding) and keeps the substrate uniform.
struct Column {
  std::string name;
  int32_t domain_size = 0;  ///< values are in [1, domain_size]
  std::vector<int32_t> values;

  /// Number of distinct values actually present.
  int64_t CountDistinct() const;
};

/// \brief A table: equal-length columns plus an optional primary key.
struct Table {
  std::string name;
  std::vector<Column> columns;
  /// Index of the primary-key column, or -1 when the table has none. The
  /// PK column holds distinct values (row identifiers in generated data).
  int primary_key = -1;

  int64_t NumRows() const {
    return columns.empty() ? 0 : static_cast<int64_t>(columns[0].values.size());
  }
  int NumColumns() const { return static_cast<int>(columns.size()); }
};

/// \brief A PK-FK relationship: `fk_table.fk_column` references
/// `pk_table.pk_column`.
struct ForeignKey {
  int fk_table = -1;
  int fk_column = -1;
  int pk_table = -1;
  int pk_column = -1;

  bool operator==(const ForeignKey& o) const = default;
};

/// \brief A relational dataset: tables plus the PK-FK join graph.
///
/// The join graph generated by this library is always a forest (each FK
/// edge attaches a table under a main table), which the engine exploits
/// for exact cardinality counting.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  int NumTables() const { return static_cast<int>(tables_.size()); }
  int64_t TotalRows() const;
  int TotalColumns() const;
  /// Sum of column domain sizes, the paper's "total domain size".
  int64_t TotalDomainSize() const;

  const Table& table(int i) const { return tables_[static_cast<size_t>(i)]; }
  Table* mutable_table(int i) { return &tables_[static_cast<size_t>(i)]; }
  const std::vector<Table>& tables() const { return tables_; }

  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// Appends a table; returns its index.
  int AddTable(Table table);

  /// Registers a PK-FK edge; validates the referenced tables/columns.
  Status AddForeignKey(const ForeignKey& fk);

  /// All FK edges incident to table `t` (either side).
  std::vector<ForeignKey> JoinsOf(int t) const;

  /// The paper's join-correlation feature for an FK edge: the fraction of
  /// PK values that appear in the FK column (|distinct FK| / |distinct PK|).
  double JoinCorrelation(const ForeignKey& fk) const;

  /// Structural + data sanity checks (column lengths, PK uniqueness, FK
  /// domain containment); used by tests and the generator.
  Status Validate() const;

  /// Mutation-epoch state (src/dyn). `epoch() == 0` is the pristine
  /// snapshot; `dyn::ApplyEpoch` advances the counter and stamps
  /// `base_fingerprint` (the content fingerprint of the epoch-0
  /// snapshot, the seed root of the whole mutation stream) on first
  /// use. Both persist through the .adat serde so a reloaded dataset
  /// resumes its stream bit-identically.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t e) { epoch_ = e; }
  uint64_t base_fingerprint() const { return base_fingerprint_; }
  void set_base_fingerprint(uint64_t f) { base_fingerprint_ = f; }

 private:
  std::string name_;
  std::vector<Table> tables_;
  std::vector<ForeignKey> fks_;
  uint64_t epoch_ = 0;
  uint64_t base_fingerprint_ = 0;
};

}  // namespace autoce::data

#endif  // AUTOCE_DATA_DATASET_H_
