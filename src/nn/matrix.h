#ifndef AUTOCE_NN_MATRIX_H_
#define AUTOCE_NN_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace autoce::nn {

/// \brief Dense row-major double matrix — the tensor type of the NN
/// substrate.
///
/// All learned components in this library (MSCN, LW-NN, the NeuroCard-style
/// autoregressive model, the GIN graph encoder) are built on this type with
/// hand-written backpropagation; there is no external ML dependency.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Builds a matrix from nested initializer data (row major).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Xavier/Glorot-uniform initialization for a (rows x cols) weight.
  static Matrix Xavier(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Row `r` as a copy.
  std::vector<double> Row(size_t r) const;

  /// Row `r` as a zero-copy view; the preferred accessor in hot loops.
  std::span<const double> RowSpan(size_t r) const {
    AUTOCE_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Mutable zero-copy view of row `r`.
  std::span<double> MutableRowSpan(size_t r) {
    AUTOCE_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Overwrites row `r` with `v` (v.size() must equal cols()).
  void SetRow(size_t r, std::span<const double> v);

  /// Copy of rows [begin, end) as a ((end - begin) x cols) matrix —
  /// the slice accessor the multi-graph batched forward uses to hand
  /// one graph's vertex block to its per-graph edge aggregation.
  Matrix SubRows(size_t begin, size_t end) const;

  /// Overwrites rows [begin, begin + block.rows()) with `block`
  /// (block.cols() must equal cols()).
  void SetRows(size_t begin, const Matrix& block);

  /// this * other  (rows x other.cols). Dispatches to util::simd; the
  /// per-element accumulation order is one ascending-k fma chain per
  /// output element, so results are bit-identical to the naive triple
  /// loop written with std::fma — at every dispatch level (scalar and
  /// AVX2 alike; see util/simd.h).
  Matrix MatMul(const Matrix& other) const;

  /// this^T * other.
  Matrix TransposeMatMul(const Matrix& other) const;

  /// this * other^T.
  Matrix MatMulTranspose(const Matrix& other) const;

  /// Elementwise operations (shapes must match).
  Matrix& AddInPlace(const Matrix& other);
  Matrix& ScaleInPlace(double s);

  /// Adds `row` (1 x cols) to every row; broadcast bias add.
  Matrix& AddRowBroadcast(const Matrix& row);

  /// Column-wise sum producing a (1 x cols) matrix.
  Matrix ColSum() const;

  /// Sets all elements to zero.
  void Zero();

  /// Frobenius norm.
  double Norm() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Squared L2 distance between two equal-length vectors (vectors and
/// RowSpan views convert implicitly).
double SquaredL2(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between two equal-length vectors.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Cosine similarity; 0 when either vector is all-zero.
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

/// True iff every element is finite (no NaN/Inf).
bool IsFinite(const Matrix& m);

/// True iff every element of the vector is finite.
bool IsFinite(std::span<const double> v);

}  // namespace autoce::nn

#endif  // AUTOCE_NN_MATRIX_H_
