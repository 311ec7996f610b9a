#include "fss/fss_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "data/generator.h"
#include "engine/optimizer.h"
#include "query/query.h"

namespace autoce::fss {
namespace {

query::Query MakeQuery() {
  query::Query q;
  q.tables = {2, 0, 1};
  q.joins.push_back({1, 0, 0, 0});
  q.joins.push_back({2, 1, 1, 0});
  q.predicates.push_back({0, 1, query::PredOp::kRange, 3, 9});
  q.predicates.push_back({2, 0, query::PredOp::kEq, 5, 5});
  q.predicates.push_back({1, 1, query::PredOp::kLe, 1, 7});
  return q;
}

/// The canonical shape bytes of `q`: the signature of the same subplan
/// with its literals zeroed.
std::string ShapeOf(query::Query q) {
  for (query::Predicate& p : q.predicates) p.lo = p.hi = 0;
  return MakeFssKey(q).signature;
}

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

TEST(FssHashTest, KeyOfFixedQueryIsPinned) {
  // The knowledge store persists these bytes and hashes, so they must
  // not move.
  FssKey key = MakeFssKey(MakeQuery());
  EXPECT_EQ(key.fss_hash, 0x2FD29CA3B0543126ULL);
  EXPECT_EQ(key.literal_hash, 0x98B569A3E1CDF0BAULL);
  EXPECT_EQ(Hex(key.signature),
            // Relations: count, then ids ascending.
            "03000000" "00000000" "01000000" "02000000"
            // Join edges: count, then (fk_table, fk_column, pk_table,
            // pk_column) ascending.
            "02000000" "01000000000000000000000000000000"
            "02000000010000000100000000000000"
            // Predicates: count, then (table, column, op) ascending.
            "03000000" "000000000100000003000000"
            "010000000100000001000000" "020000000000000000000000"
            // Literals: (lo, hi) per predicate, same order.
            "0300000009000000" "0100000007000000" "0500000005000000");
}

TEST(FssHashTest, InvariantUnderTableJoinPredicatePermutation) {
  query::Query q = MakeQuery();
  FssKey base = MakeFssKey(q);

  query::Query shuffled = q;
  std::reverse(shuffled.tables.begin(), shuffled.tables.end());
  std::reverse(shuffled.joins.begin(), shuffled.joins.end());
  std::rotate(shuffled.predicates.begin(), shuffled.predicates.begin() + 1,
              shuffled.predicates.end());
  FssKey permuted = MakeFssKey(shuffled);

  EXPECT_EQ(base.fss_hash, permuted.fss_hash);
  EXPECT_EQ(base.literal_hash, permuted.literal_hash);
  EXPECT_EQ(ShapeOf(q), ShapeOf(shuffled));
  EXPECT_EQ(base.signature, permuted.signature);
  EXPECT_TRUE(base == permuted);
}

TEST(FssHashTest, LiteralsChangeLiteralHashNotFssHash) {
  query::Query q = MakeQuery();
  FssKey base = MakeFssKey(q);

  query::Query rebound = q;
  rebound.predicates[0].lo = 4;  // same column/op, different binding
  FssKey bound = MakeFssKey(rebound);

  EXPECT_EQ(base.fss_hash, bound.fss_hash);
  EXPECT_EQ(ShapeOf(q), ShapeOf(rebound));
  EXPECT_NE(base.literal_hash, bound.literal_hash);
  EXPECT_NE(base.signature, bound.signature);
}

TEST(FssHashTest, ShapeChangesFssHash) {
  query::Query q = MakeQuery();
  FssKey base = MakeFssKey(q);

  query::Query other_column = q;
  other_column.predicates[0].column = 0;
  EXPECT_NE(base.fss_hash, MakeFssKey(other_column).fss_hash);

  query::Query other_op = q;
  other_op.predicates[2].op = query::PredOp::kGe;
  EXPECT_NE(base.fss_hash, MakeFssKey(other_op).fss_hash);

  query::Query fewer_tables = q;
  fewer_tables.tables = {0, 1};
  fewer_tables.joins.resize(1);
  fewer_tables.predicates.resize(2);
  EXPECT_NE(base.fss_hash, MakeFssKey(fewer_tables).fss_hash);
}

TEST(FssHashTest, NoCollisionsAcrossGeneratedCorpusSchemas) {
  // Hash-equal must imply byte-equal over every subplan the optimizer
  // would ever build across a corpus of generated schemas: all
  // workload queries plus their connected-subset sub-queries.
  Rng rng(7);
  data::DatasetGenParams params;
  params.min_tables = 2;
  params.max_tables = 5;
  params.min_rows = 50;
  params.max_rows = 120;
  auto corpus = data::GenerateCorpus(params, 12, &rng);

  std::unordered_map<uint64_t, std::string> shape_by_hash;
  std::unordered_map<uint64_t, std::string> full_by_hash;
  int keys = 0;
  for (const data::Dataset& dataset : corpus) {
    query::WorkloadParams wp;
    wp.num_queries = 15;
    wp.max_tables = 5;
    auto queries = query::GenerateWorkload(dataset, wp, &rng);
    for (const query::Query& q : queries) {
      std::vector<query::Query> subplans = {q};
      // Every prefix subset of the tables with induced joins/predicates
      // approximates the DP's sub-queries cheaply.
      for (std::size_t n = 1; n < q.tables.size(); ++n) {
        std::vector<int> subset(q.tables.begin(),
                                q.tables.begin() + static_cast<long>(n));
        subplans.push_back(engine::JoinOrderOptimizer::SubQuery(q, subset));
      }
      for (const query::Query& sub : subplans) {
        FssKey key = MakeFssKey(sub);
        ++keys;
        auto [it, inserted] = shape_by_hash.emplace(key.fss_hash, ShapeOf(sub));
        if (!inserted) {
          ASSERT_EQ(it->second, ShapeOf(sub))
              << "fss_hash collision between different shapes";
        }
        auto [lit, lit_inserted] =
            full_by_hash.emplace(key.literal_hash, key.signature);
        if (!lit_inserted) {
          ASSERT_EQ(lit->second, key.signature)
              << "literal_hash collision between different subplans";
        }
      }
    }
  }
  EXPECT_GT(keys, 300);
}

}  // namespace
}  // namespace autoce::fss
