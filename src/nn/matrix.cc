#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace autoce::nn {

namespace simd = ::autoce::util::simd;

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    AUTOCE_CHECK(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) v = rng->Uniform(-limit, limit);
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  AUTOCE_CHECK(r < rows_);
  return std::vector<double>(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                             data_.begin() +
                                 static_cast<ptrdiff_t>((r + 1) * cols_));
}

void Matrix::SetRow(size_t r, std::span<const double> v) {
  AUTOCE_CHECK(r < rows_ && v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix Matrix::SubRows(size_t begin, size_t end) const {
  AUTOCE_CHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<ptrdiff_t>(end * cols_),
            out.data_.begin());
  return out;
}

void Matrix::SetRows(size_t begin, const Matrix& block) {
  AUTOCE_CHECK(block.cols_ == cols_ && begin + block.rows_ <= rows_);
  std::copy(block.data_.begin(), block.data_.end(),
            data_.begin() + static_cast<ptrdiff_t>(begin * cols_));
}

// The three dense products dispatch to util::simd (scalar / AVX2 behind
// one fixed reduction order — see simd.h). Each output element
// is one ascending-k fma chain; register tiling lives inside the kernel
// and changes memory traffic, never floating-point associativity.

Matrix Matrix::MatMul(const Matrix& other) const {
  AUTOCE_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  simd::MatMul(data_.data(), other.data(), out.data(), rows_, cols_,
               other.cols_);
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  AUTOCE_CHECK(rows_ == other.rows_);
  Matrix out(cols_, other.cols_);
  simd::MatMulTN(data_.data(), other.data(), out.data(), rows_, cols_,
                 other.cols_);
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  AUTOCE_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_);
  simd::MatMulNT(data_.data(), other.data(), out.data(), rows_, cols_,
                 other.rows_);
  return out;
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  AUTOCE_CHECK(SameShape(other));
  simd::AddInPlace(data_.data(), other.data(), data_.size());
  return *this;
}

Matrix& Matrix::ScaleInPlace(double s) {
  simd::ScaleInPlace(data_.data(), s, data_.size());
  return *this;
}

Matrix& Matrix::AddRowBroadcast(const Matrix& row) {
  AUTOCE_CHECK(row.rows() == 1 && row.cols() == cols_);
  for (size_t r = 0; r < rows_; ++r) {
    simd::AddInPlace(data_.data() + r * cols_, row.data(), cols_);
  }
  return *this;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  // Rows accumulate in ascending order: one plain-add chain per column.
  for (size_t r = 0; r < rows_; ++r) {
    simd::AddInPlace(out.data(), data_.data() + r * cols_, cols_);
  }
  return out;
}

void Matrix::Zero() {
  for (double& v : data_) v = 0.0;
}

double Matrix::Norm() const {
  return std::sqrt(simd::ReduceSqSum(data_.data(), data_.size()));
}

double SquaredL2(std::span<const double> a, std::span<const double> b) {
  AUTOCE_CHECK(a.size() == b.size());
  return simd::SquaredL2(a.data(), b.data(), a.size());
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredL2(a, b));
}

double CosineSimilarity(std::span<const double> a, std::span<const double> b) {
  AUTOCE_CHECK(a.size() == b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  simd::DotNorms(a.data(), b.data(), a.size(), &dot, &na, &nb);
  if (na < 1e-24 || nb < 1e-24) return 0.0;
  return dot / std::sqrt(na * nb);
}

bool IsFinite(const Matrix& m) {
  return IsFinite(std::span<const double>(m.data(), m.size()));
}

bool IsFinite(std::span<const double> v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace autoce::nn
