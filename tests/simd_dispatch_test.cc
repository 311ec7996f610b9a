// Bit-identity sweep for the util::simd dispatch layer (DESIGN.md
// §5.10): scalar and the best-available vector level must produce
// byte-identical matrix products, embeddings, KNN neighbor lists, and
// integer and column-lane kernel outputs at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "data/generator.h"
#include "gnn/gin.h"
#include "knn/index.h"
#include "nn/matrix.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace autoce {
namespace {

namespace simd = util::simd;

/// FNV-1a over the raw bits of a double sequence — any reordering or
/// rounding difference changes the digest.
uint64_t Digest(std::span<const double> values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The dispatch levels to sweep: always scalar, plus the best available
/// level when it differs (on AVX2 hardware this pins scalar == avx2).
std::vector<simd::Level> SweepLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::LevelAvailable(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

/// Runs `fn` at dispatch level `level`, restoring the previous level.
template <typename Fn>
void AtLevel(simd::Level level, Fn&& fn) {
  simd::Level prev = simd::ActiveLevel();
  ASSERT_TRUE(simd::SetActiveLevel(level));
  fn();
  ASSERT_TRUE(simd::SetActiveLevel(prev));
}

featgraph::FeatureGraph MakeGraph(uint64_t seed, int tables) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 200;
  p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  featgraph::FeatureExtractor fx;
  return fx.Extract(ds);
}

std::vector<std::vector<double>> RandomPoints(size_t n, size_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Gaussian();
  }
  return pts;
}

/// Calls fn(m, k, n) for every edge a GEMM kernel can take: rows 1-9
/// (full 4-row tiles and 1-, 2- and 3-row leftovers), depths 1, 2, 7
/// and 33, and columns 1-17 (full 8-column tiles and every column tail).
template <typename Fn>
void ForEachGemmEdgeShape(Fn&& fn) {
  for (size_t m = 1; m <= 9; ++m) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{33}}) {
      for (size_t n = 1; n <= 17; ++n) fn(m, k, n);
    }
  }
}

/// A * B, A^T * B and A * B^T at the active level, concatenated, with
/// Gaussian operands drawn from a generator seeded by the shape.
std::vector<double> GemmEdgeProducts(size_t m, size_t k, size_t n) {
  Rng rng((m * 100 + k) * 100 + n);
  std::vector<double> a(m * k), at(k * m), b(k * n), bt(n * k);
  for (std::vector<double>* v : {&a, &at, &b, &bt}) {
    for (double& x : *v) x = rng.Gaussian();
  }
  std::vector<double> out(3 * m * n);
  simd::MatMul(a.data(), b.data(), out.data(), m, k, n);
  simd::MatMulTN(at.data(), b.data(), out.data() + m * n, k, m, n);
  simd::MatMulNT(a.data(), bt.data(), out.data() + 2 * m * n, m, k, n);
  return out;
}

void ExpectSameNeighborBits(const std::vector<knn::Neighbor>& a,
                            const std::vector<knn::Neighbor>& b,
                            const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << what << " rank " << i;
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i].distance, sizeof(bits_a));
    std::memcpy(&bits_b, &b[i].distance, sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << what << " rank " << i;
  }
}

/// Thread sweep: the kernels must be invariant to both the dispatch
/// level and the global parallelism (1 / 2 / 8).
class SimdDispatchSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    prev_threads_ = util::GlobalParallelism();
    util::SetGlobalParallelism(GetParam());
  }
  void TearDown() override { util::SetGlobalParallelism(prev_threads_); }

 private:
  int prev_threads_ = 1;
};

TEST_P(SimdDispatchSweep, MatrixProductsByteIdenticalAcrossLevels) {
  Rng rng(101);
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {3, 5, 7},
                         {4, 8, 8},
                         {8, 16, 8},
                         {5, 9, 17},
                         {13, 2, 31}}) {
    nn::Matrix a(m, k), b(k, n), at(k, m), bt(n, k);
    for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < at.size(); ++i) at.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < bt.size(); ++i) bt.data()[i] = rng.Gaussian();

    std::vector<uint64_t> digests;
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        nn::Matrix ab = a.MatMul(b);
        nn::Matrix tn = at.TransposeMatMul(b);
        nn::Matrix nt = a.MatMulTranspose(bt);
        uint64_t d = Digest({ab.data(), ab.size()}) ^
                     (Digest({tn.data(), tn.size()}) * 3) ^
                     (Digest({nt.data(), nt.size()}) * 7);
        digests.push_back(d);
      });
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[0], digests[i])
          << m << "x" << k << "x" << n << " level "
          << simd::LevelName(SweepLevels()[i]);
    }
  }
}

TEST_P(SimdDispatchSweep, GemmEdgeShapesByteIdenticalAcrossLevels) {
  ForEachGemmEdgeShape([](size_t m, size_t k, size_t n) {
    std::vector<double> want;
    AtLevel(simd::Level::kScalar, [&] { want = GemmEdgeProducts(m, k, n); });
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        const std::vector<double> got = GemmEdgeProducts(m, k, n);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << m << "x" << k << "x" << n << " level "
            << simd::LevelName(level);
      });
    }
  });
}

TEST_P(SimdDispatchSweep, EmbedBatchDigestInvariant) {
  featgraph::FeatureExtractor fx;
  Rng rng(7);
  gnn::GinConfig cfg;
  cfg.embedding_dim = 16;
  gnn::GinEncoder enc(fx.vertex_dim(), cfg, &rng);
  std::vector<featgraph::FeatureGraph> graphs;
  for (uint64_t s = 1; s <= 4; ++s) graphs.push_back(MakeGraph(s, 2 + s % 3));
  std::vector<const featgraph::FeatureGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  std::vector<uint64_t> digests;
  for (simd::Level level : SweepLevels()) {
    AtLevel(level, [&] {
      auto embs = enc.EmbedBatch(ptrs);
      uint64_t d = 0;
      for (const auto& e : embs) d ^= Digest(e) * 0x9E3779B97F4A7C15ULL;
      digests.push_back(d);
    });
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i])
        << "level " << simd::LevelName(SweepLevels()[i]);
  }
  // Thread invariance: the digest at this thread count equals the
  // digest at 1 thread.
  util::SetGlobalParallelism(1);
  auto embs = enc.EmbedBatch(ptrs);
  uint64_t single = 0;
  for (const auto& e : embs) single ^= Digest(e) * 0x9E3779B97F4A7C15ULL;
  util::SetGlobalParallelism(GetParam());
  EXPECT_EQ(digests[0], single);
}

TEST_P(SimdDispatchSweep, KnnNeighborListsInvariant) {
  auto points = RandomPoints(160, 24, 55);
  // Adversarial members: exact duplicates (tie-break), a zero vector,
  // denormal coordinates.
  points[40] = points[7];
  points[41] = points[7];
  points[42].assign(24, 0.0);
  points[43].assign(24, 4.9e-324);
  std::vector<std::vector<double>> queries = RandomPoints(12, 24, 56);
  queries.push_back(points[7]);   // exact hit with duplicates
  queries.push_back(points[42]);  // zero query

  std::vector<knn::Index> indexes;
  for (knn::Backend backend : {knn::Backend::kLinear, knn::Backend::kVpTree}) {
    knn::IndexConfig cfg;
    cfg.backend = backend;
    indexes.push_back(knn::Index::Build(points, {}, cfg));
  }
  for (const auto& q : queries) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{16}}) {
      std::vector<std::vector<knn::Neighbor>> results;
      for (const auto& index : indexes) {
        for (simd::Level level : SweepLevels()) {
          AtLevel(level, [&] { results.push_back(index.Query(q, k)); });
        }
      }
      for (size_t i = 1; i < results.size(); ++i) {
        ExpectSameNeighborBits(results[0], results[i],
                               "backend/level sweep");
      }
    }
  }
}

TEST_P(SimdDispatchSweep, IntegerAndColumnLaneKernelsByteIdenticalAcrossLevels) {
  // Lengths 0-17 reach every tail (8-wide integer loops, 4-row column-
  // lane blocks); a few hundred reach the main loops.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (size_t n : {300, 301, 515}) lengths.push_back(n);
  Rng rng(404);
  for (size_t n : lengths) {
    // Full-range codes with both extremes, small codes, a copy of the
    // first column at about half the positions, and a constant column.
    std::vector<std::vector<int32_t>> cols(4, std::vector<int32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      cols[0][i] = i % 5 == 0   ? INT32_MIN
                   : i % 5 == 1 ? INT32_MAX
                                : static_cast<int32_t>(
                                      rng.UniformInt(INT32_MIN, INT32_MAX));
      cols[1][i] = static_cast<int32_t>(rng.UniformInt(1, 30));
      cols[2][i] = rng.Bernoulli(0.5) ? cols[0][i] : cols[1][i];
      cols[3][i] = 7;
    }
    const int32_t* lanes[simd::kColumnLanes] = {cols[0].data(), cols[1].data(),
                                                cols[2].data(), cols[3].data()};
    const double mean[simd::kColumnLanes] = {-3.5, 12.25, 1e9, 7.0};
    const double sd[simd::kColumnLanes] = {1.5e9, 7.0, 3e8, 1.0};

    std::vector<std::vector<uint64_t>> outputs;
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        std::vector<uint64_t> out;
        for (const auto& col : cols) {
          int64_t sum = 0;
          int32_t lo = 0, hi = 0;
          simd::SumMinMaxI32(col.data(), n, &sum, &lo, &hi);
          int64_t want_sum = 0;
          for (int32_t v : col) want_sum += v;
          EXPECT_EQ(sum, want_sum) << "n=" << n;
          EXPECT_EQ(lo, n == 0 ? INT32_MAX : *std::min_element(col.begin(), col.end()));
          EXPECT_EQ(hi, n == 0 ? INT32_MIN : *std::max_element(col.begin(), col.end()));
          for (const auto& other : cols) {
            size_t want_eq = 0;
            for (size_t i = 0; i < n; ++i) want_eq += col[i] == other[i];
            EXPECT_EQ(simd::CountEqualI32(col.data(), other.data(), n), want_eq)
                << "n=" << n;
          }
        }
        double ss[simd::kColumnLanes], s3[simd::kColumnLanes],
            s4[simd::kColumnLanes];
        simd::ColumnLaneSquaredDeviations(lanes, n, mean, ss);
        simd::ColumnLaneStandardizedPowers(lanes, n, mean, sd, s3, s4);
        for (size_t j = 0; j < simd::kColumnLanes; ++j) {
          for (double v : {ss[j], s3[j], s4[j]}) {
            uint64_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            out.push_back(bits);
          }
        }
        outputs.push_back(out);
      });
    }
    for (size_t i = 1; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[0], outputs[i])
          << "n=" << n << " level " << simd::LevelName(SweepLevels()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdDispatchSweep,
                         ::testing::Values(1, 2, 8));

TEST(SimdDispatchTest, ScalarReferenceOrderPinned) {
  // The documented reduction order, written longhand: element i joins
  // lane (i mod 4) via fma, lanes combine as (l0 + l2) + (l1 + l3).
  Rng rng(3);
  for (size_t n : {size_t{1}, size_t{4}, size_t{7}, size_t{64}, size_t{97}}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    double lane[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) {
      lane[i % 4] = std::fma(a[i], b[i], lane[i % 4]);
    }
    double expected = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        double got = simd::Dot(a.data(), b.data(), n);
        uint64_t bits_got, bits_want;
        std::memcpy(&bits_got, &got, sizeof(bits_got));
        std::memcpy(&bits_want, &expected, sizeof(bits_want));
        EXPECT_EQ(bits_got, bits_want)
            << "n=" << n << " level=" << simd::LevelName(level);
      });
    }
  }
}

TEST(SimdDispatchTest, GemmEdgeShapesArePinned) {
  // The scalar reference's bits over every edge shape; the sweep above
  // holds every other level to them.
  std::vector<double> all;
  AtLevel(simd::Level::kScalar, [&] {
    ForEachGemmEdgeShape([&](size_t m, size_t k, size_t n) {
      const std::vector<double> products = GemmEdgeProducts(m, k, n);
      all.insert(all.end(), products.begin(), products.end());
    });
  });
  EXPECT_EQ(all.size(), 82620u);
  EXPECT_EQ(Digest(all), 0x0e13b441dec52500ULL);
}

TEST(SimdDispatchTest, DispatchPlumbing) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  simd::Level parsed;
  EXPECT_TRUE(simd::ParseLevel("avx2", &parsed));
  EXPECT_EQ(parsed, simd::Level::kAvx2);
  EXPECT_FALSE(simd::ParseLevel("sse9", &parsed));
  EXPECT_TRUE(simd::LevelAvailable(simd::Level::kScalar));
  // Scalar can always be selected and restored.
  simd::Level prev = simd::ActiveLevel();
  EXPECT_TRUE(simd::SetActiveLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_TRUE(simd::SetActiveLevel(prev));
  // An unavailable level is rejected and changes nothing.
  if (!simd::LevelAvailable(simd::Level::kAvx2)) {
    EXPECT_FALSE(simd::SetActiveLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), prev);
  }
}

TEST(KnnFastPathTest, K1MatchesGeneralPathAndTieBreak) {
  auto points = RandomPoints(60, 10, 77);
  points[20] = points[4];  // duplicate: k=1 must return the smaller index
  knn::IndexConfig cfg;
  cfg.backend = knn::Backend::kLinear;
  knn::Index index = knn::Index::Build(points, {}, cfg);

  auto tied = index.Query(points[4], 1);
  ASSERT_EQ(tied.size(), 1u);
  EXPECT_EQ(tied[0].index, 4u);
  EXPECT_EQ(tied[0].distance, 0.0);

  // An all-ones `allowed` filter must not change a k=1 answer by a bit.
  std::vector<char> all(points.size(), 1);
  auto queries = RandomPoints(8, 10, 78);
  queries.push_back(points[4]);
  for (const auto& q : queries) {
    ExpectSameNeighborBits(index.Query(q, 1),
                           index.Query(q, 1, SIZE_MAX, &all),
                           "k=1 unfiltered vs all-ones filter");
    // Leave-one-out on a duplicate falls to the twin.
    auto loo = index.Query(points[4], 1, 4);
    ASSERT_EQ(loo.size(), 1u);
    EXPECT_EQ(loo[0].index, 20u);
  }
}

}  // namespace
}  // namespace autoce
