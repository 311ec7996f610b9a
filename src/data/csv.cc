#include "data/csv.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/fault.h"
#include "util/serde.h"
#include "util/snapshot.h"

namespace autoce::data {

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, delimiter)) out.push_back(field);
  if (!line.empty() && line.back() == delimiter) out.emplace_back();
  return out;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (size_t j = i; j < s.size(); ++j) {
    if (!std::isdigit(static_cast<unsigned char>(s[j]))) return false;
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::string FileStem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Returns the column index of the first field containing a control
/// character (tab excluded), or -1 when the row is clean.
int FindControlCharacter(const std::vector<std::string>& fields) {
  for (size_t c = 0; c < fields.size(); ++c) {
    for (char ch : fields[c]) {
      unsigned char u = static_cast<unsigned char>(ch);
      if (u < 0x20 && ch != '\t') return static_cast<int>(c);
    }
  }
  return -1;
}

std::string FormatCsvErrors(const CsvReport& report) {
  std::string msg = std::to_string(report.errors_total) +
                    " malformed CSV row(s); first " +
                    std::to_string(report.errors.size()) + ":";
  for (const auto& e : report.errors) {
    msg += " [line " + std::to_string(e.row);
    if (e.column >= 0) msg += ", column " + std::to_string(e.column);
    msg += ": " + e.message + "]";
  }
  return msg;
}

}  // namespace

Result<Table> LoadCsvTable(const std::string& path,
                           const CsvOptions& options, CsvReport* report) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  const size_t max_errors =
      static_cast<size_t>(std::max(options.max_errors, 1));

  CsvReport local_report;
  CsvReport& rep = report != nullptr ? *report : local_report;
  rep = CsvReport{};
  auto record_error = [&](int64_t line_no, int column, std::string message) {
    ++rep.errors_total;
    if (rep.errors.size() < max_errors) {
      rep.errors.push_back(CsvError{line_no, column, std::move(message)});
    }
  };

  std::vector<std::vector<std::string>> raw;
  std::vector<std::string> header;
  std::string line;
  size_t num_columns = 0;
  int64_t line_no = 0;     // 1-based physical line in the file
  uint64_t data_row = 0;   // ordinal of the data row (fault-site key)
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = SplitLine(line, options.delimiter);
    if (header.empty() && options.has_header) {
      header = fields;
      num_columns = fields.size();
      continue;
    }
    if (num_columns == 0) num_columns = fields.size();
    bool bad = false;
    if (fields.size() != num_columns) {
      record_error(line_no, -1,
                   "expected " + std::to_string(num_columns) +
                       " fields, got " + std::to_string(fields.size()));
      bad = true;
    } else if (int col = FindControlCharacter(fields); col >= 0) {
      record_error(line_no, col, "field contains control characters");
      bad = true;
    } else if (util::FaultPoint(util::fault_sites::kCsvRow, data_row)) {
      record_error(line_no, -1, "injected row fault");
      bad = true;
    }
    ++data_row;
    if (bad) {
      ++rep.rows_skipped;
      continue;
    }
    raw.push_back(std::move(fields));
  }
  rep.rows_loaded = static_cast<int64_t>(raw.size());
  if (rep.errors_total > 0 && !options.skip_malformed_rows) {
    return Status::InvalidArgument(FormatCsvErrors(rep) + " in " + path);
  }
  if (raw.empty()) {
    return Status::InvalidArgument("CSV file has no valid data rows: " + path);
  }

  Table table;
  table.name =
      options.table_name.empty() ? FileStem(path) : options.table_name;
  for (size_t c = 0; c < num_columns; ++c) {
    Column col;
    col.name = (c < header.size() && !header[c].empty())
                   ? header[c]
                   : table.name + "_c" + std::to_string(c);

    // Pass 1: is the column fully integer? The extremes come from the
    // present values only.
    bool all_int = true, any_value = false;
    int64_t min_v = 0, max_v = 0;
    for (const auto& row : raw) {
      int64_t v;
      if (row[c].empty()) continue;  // missing -> handled later
      if (!ParseInt(row[c], &v)) {
        all_int = false;
        break;
      }
      min_v = any_value ? std::min(min_v, v) : v;
      max_v = any_value ? std::max(max_v, v) : v;
      any_value = true;
    }
    // max_v - min_v in unsigned arithmetic: the int64 difference of two
    // extreme values overflows.
    const uint64_t span =
        static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);

    if (all_int && span < static_cast<uint64_t>(options.max_domain)) {
      // Order-preserving shift into [1, domain]; missing values -> 1.
      col.domain_size = static_cast<int32_t>(span + 1);
      for (const auto& row : raw) {
        int64_t v;
        if (row[c].empty() || !ParseInt(row[c], &v)) {
          col.values.push_back(1);
        } else {
          col.values.push_back(static_cast<int32_t>(v - min_v + 1));
        }
      }
    } else if (all_int) {
      // Too wide to shift: code each value by its rank among the
      // distinct present values, ascending; missing values -> 1.
      std::vector<int64_t> distinct;
      for (const auto& row : raw) {
        int64_t v;
        if (!row[c].empty() && ParseInt(row[c], &v)) distinct.push_back(v);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      col.domain_size = static_cast<int32_t>(distinct.size());
      for (const auto& row : raw) {
        int64_t v;
        if (row[c].empty() || !ParseInt(row[c], &v)) {
          col.values.push_back(1);
        } else {
          auto rank = std::lower_bound(distinct.begin(), distinct.end(), v) -
                      distinct.begin();
          col.values.push_back(static_cast<int32_t>(rank + 1));
        }
      }
    } else {
      // Dictionary encoding by first appearance.
      std::unordered_map<std::string, int32_t> dict;
      for (const auto& row : raw) {
        auto [it, inserted] = dict.emplace(
            row[c], static_cast<int32_t>(dict.size() + 1));
        col.values.push_back(it->second);
      }
      col.domain_size = static_cast<int32_t>(dict.size());
    }
    if (col.domain_size > options.max_domain) {
      return Status::InvalidArgument(
          "column " + col.name + " exceeds max_domain (" +
          std::to_string(col.domain_size) + " distinct values)");
    }
    table.columns.push_back(std::move(col));
  }
  return table;
}

namespace {
constexpr uint32_t kDatasetMagic = 0x41444154;  // "ADAT"
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  return util::WriteFileAtomically(path, [&](BinaryWriter* w) {
    w->WriteU32(kDatasetMagic);
    w->WriteU32(2);  // version 2 appends dyn epoch state after the FK list
    w->WriteString(dataset.name());
    w->WriteU64(static_cast<uint64_t>(dataset.NumTables()));
    for (int t = 0; t < dataset.NumTables(); ++t) {
      const Table& table = dataset.table(t);
      w->WriteString(table.name);
      w->WriteI64(table.primary_key);
      w->WriteU64(table.columns.size());
      for (const auto& col : table.columns) {
        w->WriteString(col.name);
        w->WriteI64(col.domain_size);
        w->WriteU64(col.values.size());
        for (int32_t v : col.values) w->WriteU32(static_cast<uint32_t>(v));
      }
    }
    w->WriteU64(dataset.foreign_keys().size());
    for (const auto& fk : dataset.foreign_keys()) {
      w->WriteI64(fk.fk_table);
      w->WriteI64(fk.fk_column);
      w->WriteI64(fk.pk_table);
      w->WriteI64(fk.pk_column);
    }
    w->WriteU64(dataset.epoch());
    w->WriteU64(dataset.base_fingerprint());
  });
}

Result<Dataset> LoadDataset(const std::string& path) {
  BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  if (r.ReadU32() != kDatasetMagic) {
    return Status::InvalidArgument("not a dataset file: " + path);
  }
  const uint32_t version = r.ReadU32();
  if (version != 1 && version != 2) {
    return Status::InvalidArgument("unsupported dataset file version");
  }
  Dataset ds(r.ReadString());
  uint64_t num_tables = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (num_tables > 4096) {
    return Status::Internal("implausible table count (corrupt file)");
  }
  for (uint64_t t = 0; t < num_tables; ++t) {
    Table table;
    table.name = r.ReadString();
    table.primary_key = static_cast<int>(r.ReadI64());
    uint64_t num_cols = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (num_cols > 65536) {
      return Status::Internal("implausible column count (corrupt file)");
    }
    for (uint64_t c = 0; c < num_cols; ++c) {
      Column col;
      col.name = r.ReadString();
      col.domain_size = static_cast<int32_t>(r.ReadI64());
      uint64_t rows = r.ReadU64();
      if (!r.status().ok()) return r.status();
      // Each value takes 4 bytes, so the file bounds the count.
      if (rows > r.remaining() / 4) {
        return Status::DataLoss("column row count exceeds the file (corrupt file)");
      }
      col.values.reserve(rows);
      for (uint64_t i = 0; i < rows && r.status().ok(); ++i) {
        col.values.push_back(static_cast<int32_t>(r.ReadU32()));
      }
      table.columns.push_back(std::move(col));
    }
    ds.AddTable(std::move(table));
  }
  uint64_t num_fks = r.ReadU64();
  if (!r.status().ok()) return r.status();
  for (uint64_t i = 0; i < num_fks; ++i) {
    ForeignKey fk;
    fk.fk_table = static_cast<int>(r.ReadI64());
    fk.fk_column = static_cast<int>(r.ReadI64());
    fk.pk_table = static_cast<int>(r.ReadI64());
    fk.pk_column = static_cast<int>(r.ReadI64());
    AUTOCE_RETURN_NOT_OK(ds.AddForeignKey(fk));
  }
  if (version >= 2) {
    // Mutation-stream resume state: a reloaded dataset continues its
    // drift trajectory bit-identically (dyn/mutation.h).
    ds.set_epoch(r.ReadU64());
    ds.set_base_fingerprint(r.ReadU64());
  }
  if (!r.status().ok()) return r.status();
  AUTOCE_RETURN_NOT_OK(ds.Validate());
  return ds;
}

}  // namespace autoce::data
