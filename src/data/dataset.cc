#include "data/dataset.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace autoce::data {

namespace {

/// Exact set of int32 values for distinct counts: open addressing with
/// linear probing over a power-of-two table of at least 2n int64 slots.
/// INT64_MIN marks an empty slot, so every int32 value fits, and memory
/// is O(n) whatever the values' spread (codes are not guaranteed to lie
/// in [1, domain]: files are extracted without Validate).
class FlatInt32Set {
 public:
  /// An empty set with room for `n` distinct values.
  explicit FlatInt32Set(size_t n) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    slots_.assign(size_t{1} << bits, kEmpty);
    shift_ = 64 - bits;
  }

  /// Adds `v`; true when it was not present yet.
  bool Insert(int32_t v) {
    int64_t& slot = slots_[Find(v)];
    if (slot != kEmpty) return false;
    slot = v;
    ++size_;
    return true;
  }

  /// Marks `v`; true when it is present and was not marked yet.
  bool Mark(int32_t v) {
    int64_t& slot = slots_[Find(v)];
    if (slot != v) return false;
    slot = v + kMarked;
    return true;
  }

  size_t size() const { return size_; }

 private:
  static constexpr int64_t kEmpty = INT64_MIN;
  /// A marked value is stored as v + 2^32, outside the int32 range.
  static constexpr int64_t kMarked = int64_t{1} << 32;

  /// Slot holding `v` (marked or not), or the empty slot ending its
  /// probe sequence. Fibonacci hashing spreads dense codes.
  size_t Find(int32_t v) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(v)) *
         0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i] != kEmpty && slots_[i] != v && slots_[i] != v + kMarked) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<int64_t> slots_;
  int shift_ = 0;
  size_t size_ = 0;
};

}  // namespace

int64_t Column::CountDistinct() const {
  FlatInt32Set set(values.size());
  for (int32_t v : values) set.Insert(v);
  return static_cast<int64_t>(set.size());
}

int64_t Dataset::TotalRows() const {
  int64_t n = 0;
  for (const auto& t : tables_) n += t.NumRows();
  return n;
}

int Dataset::TotalColumns() const {
  int n = 0;
  for (const auto& t : tables_) n += t.NumColumns();
  return n;
}

int64_t Dataset::TotalDomainSize() const {
  int64_t n = 0;
  for (const auto& t : tables_) {
    for (const auto& c : t.columns) n += c.domain_size;
  }
  return n;
}

int Dataset::AddTable(Table table) {
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

Status Dataset::AddForeignKey(const ForeignKey& fk) {
  auto valid_col = [&](int t, int c) {
    return t >= 0 && t < NumTables() && c >= 0 &&
           c < tables_[static_cast<size_t>(t)].NumColumns();
  };
  if (!valid_col(fk.fk_table, fk.fk_column) ||
      !valid_col(fk.pk_table, fk.pk_column)) {
    return Status::InvalidArgument("foreign key references unknown column");
  }
  if (fk.fk_table == fk.pk_table) {
    return Status::InvalidArgument("self-join foreign keys are not supported");
  }
  fks_.push_back(fk);
  return Status::OK();
}

std::vector<ForeignKey> Dataset::JoinsOf(int t) const {
  std::vector<ForeignKey> out;
  for (const auto& fk : fks_) {
    if (fk.fk_table == t || fk.pk_table == t) out.push_back(fk);
  }
  return out;
}

double Dataset::JoinCorrelation(const ForeignKey& fk) const {
  const Column& fk_col =
      tables_[static_cast<size_t>(fk.fk_table)]
          .columns[static_cast<size_t>(fk.fk_column)];
  const Column& pk_col =
      tables_[static_cast<size_t>(fk.pk_table)]
          .columns[static_cast<size_t>(fk.pk_column)];
  FlatInt32Set pk_set(pk_col.values.size());
  for (int32_t v : pk_col.values) pk_set.Insert(v);
  if (pk_set.size() == 0) return 0.0;
  // Count FK-distinct values that actually reference a PK value: each
  // PK value is marked the first time an FK value hits it.
  int64_t hits = 0;
  for (int32_t v : fk_col.values) hits += pk_set.Mark(v);
  return static_cast<double>(hits) / static_cast<double>(pk_set.size());
}

Status Dataset::Validate() const {
  for (const auto& t : tables_) {
    if (t.columns.empty()) {
      return Status::FailedPrecondition("table " + t.name + " has no columns");
    }
    size_t rows = t.columns[0].values.size();
    for (const auto& c : t.columns) {
      if (c.values.size() != rows) {
        return Status::FailedPrecondition("ragged columns in table " + t.name);
      }
      if (c.domain_size <= 0) {
        return Status::FailedPrecondition("column " + c.name +
                                          " has non-positive domain");
      }
      for (int32_t v : c.values) {
        if (v < 1 || v > c.domain_size) {
          return Status::FailedPrecondition("column " + c.name +
                                            " value out of domain");
        }
      }
    }
    if (t.primary_key >= 0) {
      if (t.primary_key >= t.NumColumns()) {
        return Status::FailedPrecondition("PK index out of range in " + t.name);
      }
      const Column& pk = t.columns[static_cast<size_t>(t.primary_key)];
      if (pk.CountDistinct() != t.NumRows()) {
        return Status::FailedPrecondition("PK of " + t.name + " not unique");
      }
    }
  }
  for (const auto& fk : fks_) {
    if (fk.pk_table < 0 || fk.pk_table >= NumTables() || fk.fk_table < 0 ||
        fk.fk_table >= NumTables()) {
      return Status::FailedPrecondition("FK references unknown table");
    }
    const Table& pk_t = tables_[static_cast<size_t>(fk.pk_table)];
    if (pk_t.primary_key != fk.pk_column) {
      return Status::FailedPrecondition(
          "FK must reference the PK column of the referenced table");
    }
  }
  return Status::OK();
}

}  // namespace autoce::data
