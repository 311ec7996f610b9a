#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace autoce::nn {
namespace {

/// The explicit transpose the product kernels are checked against.
Matrix Transposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) out(c, r) = m(r, c);
  }
  return out;
}

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -4.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeMatMulMatchesExplicit) {
  Rng rng(1);
  Matrix a = Matrix::Xavier(4, 3, &rng);
  Matrix b = Matrix::Xavier(4, 5, &rng);
  Matrix lhs = a.TransposeMatMul(b);
  Matrix rhs = Transposed(a).MatMul(b);
  ASSERT_TRUE(lhs.SameShape(rhs));
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-12);
  }
}

TEST(MatrixTest, MatMulTransposeMatchesExplicit) {
  Rng rng(2);
  Matrix a = Matrix::Xavier(4, 3, &rng);
  Matrix b = Matrix::Xavier(5, 3, &rng);
  Matrix lhs = a.MatMulTranspose(b);
  Matrix rhs = a.MatMul(Transposed(b));
  ASSERT_TRUE(lhs.SameShape(rhs));
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-12);
  }
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.AddInPlace(b);
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a.ScaleInPlace(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.5);
}

TEST(MatrixTest, AddRowBroadcastAndColSum) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix bias = Matrix::FromRows({{10, 20}});
  a.AddRowBroadcast(bias);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);
  Matrix s = a.ColSum();
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_DOUBLE_EQ(s(0, 0), 24.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 46.0);
}

TEST(MatrixTest, RowAccessors) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  auto r = a.Row(1);
  EXPECT_EQ(r, (std::vector<double>{4, 5, 6}));
  a.SetRow(0, std::vector<double>{7, 8, 9});
  EXPECT_DOUBLE_EQ(a(0, 2), 9.0);
}

TEST(MatrixTest, Norm) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
}

TEST(MatrixTest, XavierWithinLimits) {
  Rng rng(3);
  Matrix m = Matrix::Xavier(30, 20, &rng);
  double limit = std::sqrt(6.0 / 50.0);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), limit);
  }
}

TEST(VectorMathTest, Distances) {
  std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(SquaredL2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(VectorMathTest, CosineSimilarity) {
  std::vector<double> e1{1, 0}, e2{0, 1}, ones{1, 1}, neg{-1, -1}, zero{0, 0};
  EXPECT_NEAR(CosineSimilarity(e1, e1), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(e1, e2), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(ones, neg), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity(zero, ones), 0.0);
}

TEST(MatrixTest, RowSpanViewsRowWithoutCopy) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  std::span<const double> r1 = m.RowSpan(1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(r1.data(), m.data() + 3);
  EXPECT_DOUBLE_EQ(r1[0], 4.0);
  m.MutableRowSpan(1)[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
  Matrix dst(1, 3);
  dst.SetRow(0, m.RowSpan(1));
  EXPECT_DOUBLE_EQ(dst(0, 2), 9.0);
}

TEST(MatrixTest, TiledMatMulMatchesReferenceOnOddShapes) {
  // Exercises every remainder path of the 4x8 register tile, including
  // exact zeros in A (the old kernel special-cased them).
  Rng rng(11);
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {3, 5, 7},
                         {4, 8, 8},
                         {5, 9, 17},
                         {13, 2, 31}}) {
    Matrix a(m, k), b(k, n);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = rng.Bernoulli(0.3) ? 0.0 : rng.Gaussian();
    }
    for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
    Matrix c = a.MatMul(b);
    ASSERT_EQ(c.rows(), m);
    ASSERT_EQ(c.cols(), n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        // The documented reference order: one ascending-k fma chain per
        // output element (util/simd.h).
        double ref = 0.0;
        for (size_t kk = 0; kk < k; ++kk) {
          ref = std::fma(a(i, kk), b(kk, j), ref);
        }
        EXPECT_DOUBLE_EQ(c(i, j), ref) << i << "," << j;
      }
    }
    // The transpose kernels must agree with explicit transposition.
    Matrix t1 = Transposed(a).TransposeMatMul(b);
    Matrix t2 = a.MatMulTranspose(Transposed(b));
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(t1(i, j), c(i, j), 1e-12);
        EXPECT_NEAR(t2(i, j), c(i, j), 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace autoce::nn
