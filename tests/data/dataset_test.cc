#include "data/dataset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "engine/executor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace autoce::data {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::pair<std::string, std::vector<int32_t>>> cols,
                int pk = -1) {
  Table t;
  t.name = name;
  for (auto& [cname, values] : cols) {
    Column c;
    c.name = cname;
    c.values = values;
    c.domain_size = 0;
    for (int32_t v : values) c.domain_size = std::max(c.domain_size, v);
    if (c.domain_size == 0) c.domain_size = 1;
    t.columns.push_back(std::move(c));
  }
  t.primary_key = pk;
  return t;
}

TEST(ColumnTest, DistinctAndMinMax) {
  auto moments = [](const Column& col) {
    stats::Moments m;
    const std::span<const int32_t> codes(col.values);
    stats::MomentsOfColumns({&codes, 1}, {&m, 1});
    return m;
  };
  Column c;
  c.values = {3, 1, 3, 2, 1};
  EXPECT_EQ(c.CountDistinct(), 3);
  EXPECT_EQ(moments(c).min, 1);
  EXPECT_EQ(moments(c).max, 3);
  Column empty;
  EXPECT_EQ(empty.CountDistinct(), 0);
  EXPECT_EQ(moments(empty).min, 0);
}

TEST(TableTest, ShapeAccessors) {
  Table t = MakeTable("t", {{"a", {1, 2, 3}}, {"b", {4, 5, 6}}});
  EXPECT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.NumColumns(), 2);
}

class TwoTableDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // parent(id, x), child(fk, y); child.fk references parent.id.
    ds_.set_name("two");
    parent_id_ = ds_.AddTable(
        MakeTable("parent", {{"id", {1, 2, 3, 4}}, {"x", {5, 5, 7, 9}}}, 0));
    child_id_ = ds_.AddTable(
        MakeTable("child", {{"fk", {1, 1, 2, 2, 2, 3}},
                            {"y", {1, 2, 3, 1, 2, 3}}}));
    ForeignKey fk{child_id_, 0, parent_id_, 0};
    ASSERT_TRUE(ds_.AddForeignKey(fk).ok());
  }

  Dataset ds_;
  int parent_id_, child_id_;
};

TEST_F(TwoTableDatasetTest, Totals) {
  EXPECT_EQ(ds_.NumTables(), 2);
  EXPECT_EQ(ds_.TotalRows(), 10);
  EXPECT_EQ(ds_.TotalColumns(), 4);
  EXPECT_GT(ds_.TotalDomainSize(), 0);
}

TEST_F(TwoTableDatasetTest, FindAndJoins) {
  EXPECT_EQ(ds_.JoinsOf(parent_id_).size(), 1u);
  EXPECT_EQ(ds_.JoinsOf(child_id_).size(), 1u);
}

TEST_F(TwoTableDatasetTest, Connectivity) {
  // The check every join query passes: its joins span its tables as a
  // tree.
  const std::vector<ForeignKey>& fks = ds_.foreign_keys();
  EXPECT_TRUE(engine::CheckJoinTree(ds_, {parent_id_, child_id_}, fks).ok());
  EXPECT_TRUE(engine::CheckJoinTree(ds_, {parent_id_}, {}).ok());
  EXPECT_FALSE(engine::CheckJoinTree(ds_, {}, {}).ok());
  EXPECT_FALSE(engine::CheckJoinTree(ds_, {parent_id_, child_id_}, {}).ok());
  // A repeated id is not a tree; an unknown id is not in the dataset.
  EXPECT_FALSE(
      engine::CheckJoinTree(ds_, {child_id_, parent_id_, child_id_}, fks).ok());
  EXPECT_FALSE(engine::CheckJoinTree(ds_, {parent_id_, 99}, fks).ok());
}

TEST_F(TwoTableDatasetTest, JoinCorrelation) {
  // FK distinct values {1,2,3}; PK distinct values {1,2,3,4}: 3/4.
  EXPECT_DOUBLE_EQ(ds_.JoinCorrelation(ds_.foreign_keys()[0]), 0.75);
}

/// |distinct FK ∩ distinct PK| / |distinct PK| over std::set: the
/// reference JoinCorrelation must match bit for bit.
double ReferenceJoinCorrelation(const std::vector<int32_t>& fk,
                                const std::vector<int32_t>& pk) {
  std::set<int32_t> fk_set(fk.begin(), fk.end());
  std::set<int32_t> pk_set(pk.begin(), pk.end());
  if (pk_set.empty()) return 0.0;
  int64_t hits = 0;
  for (int32_t v : fk_set) hits += static_cast<int64_t>(pk_set.count(v));
  return static_cast<double>(hits) / static_cast<double>(pk_set.size());
}

/// Checks JoinCorrelation and CountDistinct of an FK column referencing
/// a PK column against the std::set reference. The codes need not lie
/// in any domain: datasets loaded from files are extracted without
/// Validate.
void ExpectMatchesSetReference(const std::vector<int32_t>& fk,
                               const std::vector<int32_t>& pk) {
  Dataset ds;
  Table parent;
  parent.name = "p";
  parent.columns.push_back(Column{"id", 1, pk});
  parent.primary_key = 0;
  Table child;
  child.name = "c";
  child.columns.push_back(Column{"fk", 1, fk});
  ds.AddTable(std::move(parent));
  ds.AddTable(std::move(child));
  ForeignKey edge{1, 0, 0, 0};
  ASSERT_TRUE(ds.AddForeignKey(edge).ok());
  EXPECT_EQ(ds.JoinCorrelation(edge), ReferenceJoinCorrelation(fk, pk));
  for (const std::vector<int32_t>* v : {&fk, &pk}) {
    EXPECT_EQ((Column{"x", 1, *v}).CountDistinct(),
              static_cast<int64_t>(std::set<int32_t>(v->begin(), v->end())
                                       .size()));
  }
}

TEST(JoinCorrelationTest, MatchesSetReferenceOnEdgeValues) {
  ExpectMatchesSetReference({INT32_MIN, INT32_MAX, 0, INT32_MAX},
                            {INT32_MAX, INT32_MIN, -1, 1});
  // Negative codes, and FK values absent from the PK.
  ExpectMatchesSetReference({-5, -4, -4, 7, 100, -100000},
                            {-5, -4, -3, -2, 7, 8});
  // Heavy duplicates on both sides.
  ExpectMatchesSetReference(std::vector<int32_t>(5000, 42),
                            {42, 42, 42, 43, 43, 1});
  // No FK value hits the PK.
  ExpectMatchesSetReference({1, 2, 3}, {4, 5, 6});
}

TEST(JoinCorrelationTest, EmptyPrimaryKeyColumnGivesZero) {
  // The reference reads 0.0 when the PK column is empty.
  ExpectMatchesSetReference({1, 2, 3}, {});
  ExpectMatchesSetReference({}, {});
}

TEST(JoinCorrelationTest, MatchesSetReferenceOnRandomColumns) {
  // Sizes around the set's power-of-two growth steps, value ranges from
  // a few dense codes to the full int32 span.
  Rng rng(4242);
  const int64_t spans[] = {1, 3, 1000, 1 << 20, int64_t{1} << 32};
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 4096u}) {
    for (int64_t span : spans) {
      const int64_t base = rng.UniformInt(INT32_MIN, INT32_MAX - (span - 1));
      auto draw = [&](size_t count) {
        std::vector<int32_t> out(count);
        for (auto& v : out) {
          v = static_cast<int32_t>(base + rng.UniformInt(0, span - 1));
        }
        return out;
      };
      ExpectMatchesSetReference(draw(n), draw(n / 2 + 1));
    }
  }
}

TEST_F(TwoTableDatasetTest, ValidateOk) {
  EXPECT_TRUE(ds_.Validate().ok());
}

TEST(DatasetValidateTest, RejectsBadForeignKey) {
  Dataset ds;
  ds.AddTable(MakeTable("a", {{"x", {1, 2}}}));
  ForeignKey fk{0, 0, 5, 0};
  EXPECT_FALSE(ds.AddForeignKey(fk).ok());
  ForeignKey self{0, 0, 0, 0};
  EXPECT_FALSE(ds.AddForeignKey(self).ok());
}

TEST(DatasetValidateTest, DetectsNonUniquePk) {
  Dataset ds;
  ds.AddTable(MakeTable("a", {{"id", {1, 1, 2}}}, 0));
  Status s = ds.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetValidateTest, DetectsRaggedColumns) {
  Dataset ds;
  Table t = MakeTable("a", {{"x", {1, 2, 3}}});
  Column extra;
  extra.name = "y";
  extra.domain_size = 5;
  extra.values = {1, 2};  // wrong length
  t.columns.push_back(extra);
  ds.AddTable(std::move(t));
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetValidateTest, DetectsValueOutOfDomain) {
  Dataset ds;
  Table t = MakeTable("a", {{"x", {1, 2, 3}}});
  t.columns[0].domain_size = 2;  // 3 is now out of range
  ds.AddTable(std::move(t));
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetValidateTest, FkMustTargetPkColumn) {
  Dataset ds;
  ds.AddTable(MakeTable("p", {{"id", {1, 2}}, {"x", {3, 4}}}, 0));
  ds.AddTable(MakeTable("c", {{"fk", {1, 2}}}));
  // Edge pointing at the non-PK column "x".
  ForeignKey fk{1, 0, 0, 1};
  ASSERT_TRUE(ds.AddForeignKey(fk).ok());  // structurally fine
  EXPECT_FALSE(ds.Validate().ok());        // semantically rejected
}

}  // namespace
}  // namespace autoce::data
