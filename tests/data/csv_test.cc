#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/generator.h"

namespace autoce::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(CsvLoadTest, IntegerColumnsArePreservedOrderwise) {
  std::string path = TempPath("ints.csv");
  WriteFile(path, "a,b\n10,5\n20,5\n15,7\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->name, "ints");
  EXPECT_EQ(table->NumColumns(), 2);
  EXPECT_EQ(table->NumRows(), 3);
  // Column a: min 10 -> codes 1, 11, 6 (order preserving shift).
  EXPECT_EQ(table->columns[0].values, (std::vector<int32_t>{1, 11, 6}));
  EXPECT_EQ(table->columns[0].domain_size, 11);
  // Column b: min 5 -> codes 1, 1, 3.
  EXPECT_EQ(table->columns[1].values, (std::vector<int32_t>{1, 1, 3}));
  std::remove(path.c_str());
}

TEST(CsvLoadTest, ExtremeIntegersAreDictionaryEncoded) {
  // INT64_MAX - (-1) overflows int64; the span is far past max_domain,
  // so the column codes by value rank, which here matches first appearance.
  std::string path = TempPath("extremes.csv");
  WriteFile(path, "v\n-1\n9223372036854775807\n-1\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->columns[0].values, (std::vector<int32_t>{1, 2, 1}));
  EXPECT_EQ(table->columns[0].domain_size, 2);
  std::remove(path.c_str());
}

TEST(CsvLoadTest, WideIntegerColumnsKeepValueOrder) {
  // First appearance and value order disagree; a span past max_domain
  // codes by value rank, and a missing value is code 1.
  std::string path = TempPath("wide.csv");
  WriteFile(path, "v,w\n9223372036854775807,a\n-1,b\n,c\n400,d\n-1,e\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->columns[0].values,
            (std::vector<int32_t>{3, 1, 1, 2, 1}));
  EXPECT_EQ(table->columns[0].domain_size, 3);
  std::remove(path.c_str());

  CsvOptions narrow;
  narrow.max_domain = 2;
  WriteFile(path, "v\n1\n5\n9\n");
  EXPECT_FALSE(LoadCsvTable(path, narrow).ok());
  std::remove(path.c_str());
}

TEST(CsvLoadTest, MissingValuesDoNotWidenTheDomain) {
  // The extremes come from the present values, wherever the first one
  // sits; a missing value is code 1.
  std::string path = TempPath("missing.csv");
  WriteFile(path, "a,b\n,5\n5,7\n7,\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->columns[0].values, (std::vector<int32_t>{1, 1, 3}));
  EXPECT_EQ(table->columns[0].domain_size, 3);
  EXPECT_EQ(table->columns[1].values, (std::vector<int32_t>{1, 3, 1}));
  EXPECT_EQ(table->columns[1].domain_size, 3);
  std::remove(path.c_str());
}

TEST(CsvLoadTest, StringsAreDictionaryEncoded) {
  std::string path = TempPath("strings.csv");
  WriteFile(path, "city\nparis\nlondon\nparis\ntokyo\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->columns[0].values, (std::vector<int32_t>{1, 2, 1, 3}));
  EXPECT_EQ(table->columns[0].domain_size, 3);
  std::remove(path.c_str());
}

TEST(CsvLoadTest, MixedColumnFallsBackToDictionary) {
  std::string path = TempPath("mixed.csv");
  WriteFile(path, "v\n1\nx\n1\n");
  auto table = LoadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->columns[0].values, (std::vector<int32_t>{1, 2, 1}));
  std::remove(path.c_str());
}

TEST(CsvLoadTest, NoHeaderMode) {
  std::string path = TempPath("nohdr.csv");
  WriteFile(path, "1,2\n3,4\n");
  CsvOptions opts;
  opts.has_header = false;
  opts.table_name = "t";
  auto table = LoadCsvTable(path, opts);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 2);
  EXPECT_EQ(table->columns[0].name, "t_c0");
  std::remove(path.c_str());
}

TEST(CsvLoadTest, RejectsRaggedRows) {
  std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,b\n1,2\n3\n");
  auto table = LoadCsvTable(path);
  EXPECT_FALSE(table.ok());
  std::remove(path.c_str());
}

TEST(CsvLoadTest, MissingFile) {
  auto table = LoadCsvTable("/no/such/file.csv");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

TEST(CsvLoadTest, EmptyFileRejected) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "a,b\n");
  auto table = LoadCsvTable(path);
  EXPECT_FALSE(table.ok());
  std::remove(path.c_str());
}

struct MalformedCase {
  const char* name;
  const char* content;
  int64_t good_rows;     // rows that survive in skip mode
  int64_t bad_rows;      // malformed rows detected
  bool column_reported;  // at least one error pinpoints a column
};

class CsvMalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(CsvMalformedTest, StrictModeReportsRowAndColumn) {
  const auto& p = GetParam();
  std::string path = TempPath((std::string("strict_") + p.name + ".csv").c_str());
  WriteFile(path, p.content);
  CsvReport report;
  auto table = LoadCsvTable(path, {}, &report);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.errors_total, p.bad_rows);
  ASSERT_FALSE(report.errors.empty());
  // Diagnostics carry the 1-based physical line of the offending row.
  for (const auto& e : report.errors) EXPECT_GE(e.row, 2);
  if (p.column_reported) {
    bool any_column = false;
    for (const auto& e : report.errors) any_column |= e.column >= 0;
    EXPECT_TRUE(any_column);
  }
  // The formatted status message embeds the diagnostics.
  EXPECT_NE(table.status().ToString().find("malformed"), std::string::npos);
  std::remove(path.c_str());
}

TEST_P(CsvMalformedTest, SkipModeLoadsTheValidRemainder) {
  const auto& p = GetParam();
  std::string path = TempPath((std::string("skip_") + p.name + ".csv").c_str());
  WriteFile(path, p.content);
  CsvOptions opts;
  opts.skip_malformed_rows = true;
  CsvReport report;
  auto table = LoadCsvTable(path, opts, &report);
  EXPECT_EQ(report.rows_skipped, p.bad_rows);
  EXPECT_EQ(report.errors_total, p.bad_rows);
  if (p.good_rows == 0) {
    EXPECT_FALSE(table.ok());  // nothing valid left
  } else {
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table->NumRows(), p.good_rows);
    EXPECT_EQ(report.rows_loaded, p.good_rows);
  }
  std::remove(path.c_str());
}

TEST(CsvMalformedBoundsTest, DiagnosticsAreBoundedByMaxErrors) {
  std::string path = TempPath("many_errors.csv");
  std::string content = "a,b\n";
  for (int i = 0; i < 20; ++i) content += "lonely\n";  // every row ragged
  WriteFile(path, content);
  CsvOptions opts;
  opts.max_errors = 3;
  CsvReport report;
  auto table = LoadCsvTable(path, opts, &report);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(report.errors_total, 20);
  EXPECT_EQ(report.errors.size(), 3u);  // bounded diagnostics
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    MalformedInputs, CsvMalformedTest,
    ::testing::Values(
        MalformedCase{"ragged_short", "a,b\n1,2\n3\n4,5\n", 2, 1, false},
        MalformedCase{"ragged_long", "a,b\n1,2\n3,4,5\n6,7\n", 2, 1, false},
        MalformedCase{"control_char", "a,b\n1,2\n3,\x01" "bad\n5,6\n", 2, 1,
                      true},
        MalformedCase{"all_bad", "a,b\nonly\nme\n", 0, 2, false},
        MalformedCase{"mixed", "a,b\n1,2\nx\n3,\x02\ny\n4,5\n", 2, 3, true}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(CsvRoundTripTest, SaveThenLoad) {
  Rng rng(1);
  SingleTableParams p;
  p.num_columns = 3;
  p.num_rows = 50;
  Table t = GenerateSingleTable(p, &rng);
  std::string path = TempPath("roundtrip.csv");
  {
    std::ofstream out(path);
    for (int c = 0; c < t.NumColumns(); ++c) {
      out << (c > 0 ? "," : "") << t.columns[static_cast<size_t>(c)].name;
    }
    out << "\n";
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      for (int c = 0; c < t.NumColumns(); ++c) {
        out << (c > 0 ? "," : "")
            << t.columns[static_cast<size_t>(c)].values[static_cast<size_t>(r)];
      }
      out << "\n";
    }
  }
  auto loaded = LoadCsvTable(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumRows(), t.NumRows());
  EXPECT_EQ(loaded->NumColumns(), t.NumColumns());
  // Coded values are written verbatim; reloading shifts by min, so the
  // *pairwise order relations* are preserved even if codes differ.
  for (int c = 0; c < t.NumColumns(); ++c) {
    const auto& a = t.columns[static_cast<size_t>(c)].values;
    const auto& b = loaded->columns[static_cast<size_t>(c)].values;
    for (size_t i = 1; i < a.size(); ++i) {
      EXPECT_EQ(a[i] < a[0], b[i] < b[0]);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetSerdeTest, RoundTripMultiTable) {
  Rng rng(2);
  DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = 100;
  p.max_rows = 200;
  Dataset ds = GenerateDataset(p, &rng);
  std::string path = TempPath("dataset.adat");
  ASSERT_TRUE(SaveDataset(ds, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), ds.name());
  EXPECT_EQ(loaded->NumTables(), ds.NumTables());
  EXPECT_EQ(loaded->foreign_keys().size(), ds.foreign_keys().size());
  EXPECT_TRUE(loaded->Validate().ok());
  for (int t = 0; t < ds.NumTables(); ++t) {
    EXPECT_EQ(loaded->table(t).name, ds.table(t).name);
    EXPECT_EQ(loaded->table(t).primary_key, ds.table(t).primary_key);
    ASSERT_EQ(loaded->table(t).NumColumns(), ds.table(t).NumColumns());
    for (int c = 0; c < ds.table(t).NumColumns(); ++c) {
      EXPECT_EQ(loaded->table(t).columns[static_cast<size_t>(c)].values,
                ds.table(t).columns[static_cast<size_t>(c)].values);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetSerdeTest, RejectsGarbage) {
  std::string path = TempPath("garbage.adat");
  WriteFile(path, "not a dataset");
  auto loaded = LoadDataset(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(DatasetSerdeTest, FailedSaveKeepsThePreviousFile) {
  // SaveDataset writes a temp file and renames it into place, so a save
  // that fails (here: the temp path is occupied by a directory) leaves
  // the previous .adat loadable and unchanged, and no temp file behind.
  Rng rng(4);
  DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 60;
  Dataset first = GenerateDataset(p, &rng);
  Dataset second = GenerateDataset(p, &rng);
  const std::string path = TempPath("atomic.adat");
  ASSERT_TRUE(SaveDataset(first, path).ok());
  const std::string saved = ReadFile(path);

  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  EXPECT_FALSE(SaveDataset(second, path).ok());
  EXPECT_FALSE(std::filesystem::is_regular_file(tmp));
  std::filesystem::remove_all(tmp);

  EXPECT_EQ(ReadFile(path), saved);
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), first.name());
  std::remove(path.c_str());
}

TEST(DatasetSerdeTest, CorruptRowCountIsDataLoss) {
  // A flipped high bit in a column's row count must not size an
  // allocation: it once aborted the load with bad_alloc (bit 40) or
  // length_error (bit 63).
  Rng rng(3);
  DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 50;
  Dataset ds = GenerateDataset(p, &rng);
  std::string path = TempPath("rows.adat");
  ASSERT_TRUE(SaveDataset(ds, path).ok());
  const std::string bytes = ReadFile(path);
  // Little-endian layout up to table 0's first row count: magic, version,
  // dataset name, table count, table name, primary key, column count,
  // column name, domain.
  size_t at = 4 + 4 + (8 + ds.name().size()) + 8 +
              (8 + ds.table(0).name.size()) + 8 + 8 +
              (8 + ds.table(0).columns[0].name.size()) + 8;
  ASSERT_LE(at + 8, bytes.size());
  ASSERT_EQ(static_cast<unsigned char>(bytes[at]), 50u);
  for (int bit : {40, 63}) {
    std::string corrupt = bytes;
    corrupt[at + static_cast<size_t>(bit / 8)] ^=
        static_cast<char>(1 << (bit % 8));
    WriteFile(path, corrupt);
    auto loaded = LoadDataset(path);
    ASSERT_FALSE(loaded.ok()) << "bit " << bit;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << "bit " << bit;
  }
  std::remove(path.c_str());
}

TEST(DatasetSerdeTest, RaggedTableIsRejected) {
  // The engine indexes a join-key column by row ids up to column 0's
  // length, so a key column shorter than column 0 must not load.
  Rng rng(4);
  DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 10;
  Dataset ds = GenerateDataset(p, &rng);
  ASSERT_EQ(ds.foreign_keys().size(), 1u);
  const ForeignKey fk = ds.foreign_keys()[0];
  ASSERT_GT(fk.fk_column, 0);
  ds.mutable_table(fk.fk_table)
      ->columns[static_cast<size_t>(fk.fk_column)]
      .values.resize(5);
  ASSERT_FALSE(ds.Validate().ok());
  std::string path = TempPath("ragged.adat");
  ASSERT_TRUE(SaveDataset(ds, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autoce::data
