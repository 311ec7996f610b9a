#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/logging.h"

// Compile-time side of the dispatch: AUTOCE_SIMD=scalar defines
// AUTOCE_SIMD_DISABLE and strips the AVX2 path; otherwise x86-64 builds
// compile it behind per-function target attributes (no global -mavx2,
// so the rest of the binary stays runnable on baseline hardware). Other
// ISAs run the scalar reference.
#if !defined(AUTOCE_SIMD_DISABLE) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AUTOCE_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#define AUTOCE_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define AUTOCE_SIMD_HAVE_AVX2 0
#endif

namespace autoce::util::simd {

namespace {

// =====================================================================
// Scalar reference kernels. Every other level must reproduce these
// bit-for-bit; the lane assignment (element k -> lane k mod 4) and the
// combine tree (l0 + l2) + (l1 + l3) are the documented reference
// order. std::fma is correctly rounded, so "which instruction" can
// never matter — only the order encoded here.
// =====================================================================

namespace scalar {

/// C[i_begin..i_end) x [j_begin..j_end) region of C = op(A) * B with
/// op(A)[i][k] = a[i * a_i_stride + k * a_k_stride]. Shared by the
/// scalar kernels (whole matrix) and the vector kernels (edge tiles) —
/// per-output-element ascending-k fma chains either way.
inline void GemmBlock(const double* a, size_t a_i_stride, size_t a_k_stride,
                      const double* b, double* c, size_t k, size_t n,
                      size_t i_begin, size_t i_end, size_t j_begin,
                      size_t j_end) {
  for (size_t i = i_begin; i < i_end; ++i) {
    double* crow = c + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * a_i_stride + kk * a_k_stride];
      const double* brow = b + kk * n;
      for (size_t j = j_begin; j < j_end; ++j) {
        crow[j] = std::fma(aik, brow[j], crow[j]);
      }
    }
  }
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  GemmBlock(a, /*a_i_stride=*/k, /*a_k_stride=*/1, b, c, k, n, 0, m, 0, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  GemmBlock(a, /*a_i_stride=*/1, /*a_k_stride=*/m, b, c, k, n, 0, m, 0, n);
}

double Dot(const double* a, const double* b, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] = std::fma(a[i], b[i], lane[0]);
    lane[1] = std::fma(a[i + 1], b[i + 1], lane[1]);
    lane[2] = std::fma(a[i + 2], b[i + 2], lane[2]);
    lane[3] = std::fma(a[i + 3], b[i + 3], lane[3]);
  }
  for (; i < n; ++i) lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = Dot(a + i * k, b + j * k, k);
  }
}

double SquaredL2(const double* a, const double* b, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    lane[0] = std::fma(d0, d0, lane[0]);
    lane[1] = std::fma(d1, d1, lane[1]);
    lane[2] = std::fma(d2, d2, lane[2]);
    lane[3] = std::fma(d3, d3, lane[3]);
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b) {
  double ld[4] = {}, la[4] = {}, lb[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = i & 3;
    ld[l] = std::fma(a[i], b[i], ld[l]);
    la[l] = std::fma(a[i], a[i], la[l]);
    lb[l] = std::fma(b[i], b[i], lb[l]);
  }
  *dot = (ld[0] + ld[2]) + (ld[1] + ld[3]);
  *norm_a = (la[0] + la[2]) + (la[1] + la[3]);
  *norm_b = (lb[0] + lb[2]) + (lb[1] + lb[3]);
}

double ReduceSqSum(const double* x, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i & 3] = std::fma(x[i], x[i], lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void AddInPlace(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void ScaleInPlace(double* y, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= s;
}

void ReluInPlace(double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0) x[i] = 0.0;
  }
}

void ReluBackward(const double* pre, double* grad, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

void SumMinMaxI32(const int32_t* x, size_t n, int64_t* sum, int32_t* min,
                  int32_t* max) {
  // Unsigned, so a sum past int64 wraps instead of being undefined.
  uint64_t total = 0;
  int32_t lo = INT32_MAX, hi = INT32_MIN;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(static_cast<int64_t>(x[i]));
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  *sum = static_cast<int64_t>(total);
  *min = lo;
  *max = hi;
}

size_t CountEqualI32(const int32_t* a, const int32_t* b, size_t n) {
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) matches += a[i] == b[i];
  return matches;
}

void ColumnLaneSquaredDeviations(const int32_t* const cols[kColumnLanes],
                                 size_t n, const double mean[kColumnLanes],
                                 double ss[kColumnLanes]) {
  double acc[kColumnLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kColumnLanes; ++j) {
      const double d = static_cast<double>(cols[j][i]) - mean[j];
      acc[j] += d * d;
    }
  }
  for (size_t j = 0; j < kColumnLanes; ++j) ss[j] = acc[j];
}

void ColumnLaneStandardizedPowers(const int32_t* const cols[kColumnLanes],
                                  size_t n, const double mean[kColumnLanes],
                                  const double sd[kColumnLanes],
                                  double s3[kColumnLanes],
                                  double s4[kColumnLanes]) {
  double acc3[kColumnLanes] = {0.0, 0.0, 0.0, 0.0};
  double acc4[kColumnLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kColumnLanes; ++j) {
      const double z = (static_cast<double>(cols[j][i]) - mean[j]) / sd[j];
      const double z3 = z * z * z;
      acc3[j] += z3;
      acc4[j] += z3 * z;
    }
  }
  for (size_t j = 0; j < kColumnLanes; ++j) {
    s3[j] = acc3[j];
    s4[j] = acc4[j];
  }
}

}  // namespace scalar

// =====================================================================
// AVX2 + FMA kernels. Lane layout: one ymm register holds reduction
// lanes [l0 l1 l2 l3]; the combine tree is expressed as
// (low128 + high128) then lane0 + lane1 == (l0 + l2) + (l1 + l3).
// =====================================================================

#if AUTOCE_SIMD_HAVE_AVX2

namespace avx2 {

AUTOCE_TARGET_AVX2 inline double CombineTree(__m256d acc, const double* a,
                                             const double* b, size_t done,
                                             size_t n) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (size_t i = done; i < n; ++i) {
    lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

AUTOCE_TARGET_AVX2 double Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  return CombineTree(acc, a, b, i, n);
}

AUTOCE_TARGET_AVX2 double SquaredL2(const double* a, const double* b,
                                    size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

AUTOCE_TARGET_AVX2 void DotNorms(const double* a, const double* b, size_t n,
                                 double* dot, double* norm_a,
                                 double* norm_b) {
  __m256d ad = _mm256_setzero_pd();
  __m256d aa = _mm256_setzero_pd();
  __m256d bb = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    ad = _mm256_fmadd_pd(va, vb, ad);
    aa = _mm256_fmadd_pd(va, va, aa);
    bb = _mm256_fmadd_pd(vb, vb, bb);
  }
  alignas(32) double ld[4], la[4], lb[4];
  _mm256_store_pd(ld, ad);
  _mm256_store_pd(la, aa);
  _mm256_store_pd(lb, bb);
  for (; i < n; ++i) {
    const size_t l = i & 3;
    ld[l] = std::fma(a[i], b[i], ld[l]);
    la[l] = std::fma(a[i], a[i], la[l]);
    lb[l] = std::fma(b[i], b[i], lb[l]);
  }
  *dot = (ld[0] + ld[2]) + (ld[1] + ld[3]);
  *norm_a = (la[0] + la[2]) + (la[1] + la[3]);
  *norm_b = (lb[0] + lb[2]) + (lb[1] + lb[3]);
}

AUTOCE_TARGET_AVX2 double ReduceSqSum(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] = std::fma(x[i], x[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

/// One R x 8 tile of C = op(A) * B, R = sizeof...(Rows), with `a` at the
/// tile's first row, `b` at its first column and `c` at its first
/// element. Two ymm accumulators per row give 2R independent fma chains.
/// Every statement over the rows is a pack expansion, unrolled in the
/// source rather than by the optimizer, so each accumulator index is a
/// constant and the accumulators stay in registers at -O2 as at -O3
/// (DESIGN.md §5.10). Each element is one ascending-k fma chain from
/// zero: the scalar block's bits.
template <size_t... Rows>
AUTOCE_TARGET_AVX2 inline void GemmTile(std::index_sequence<Rows...>,
                                        const double* a, size_t a_i_stride,
                                        size_t a_k_stride, const double* b,
                                        double* c, size_t k, size_t n) {
  __m256d lo[] = {(static_cast<void>(Rows), _mm256_setzero_pd())...};
  __m256d hi[] = {(static_cast<void>(Rows), _mm256_setzero_pd())...};
  for (size_t kk = 0; kk < k; ++kk, a += a_k_stride, b += n) {
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    __m256d ar;
    ((ar = _mm256_set1_pd(a[Rows * a_i_stride]),
      lo[Rows] = _mm256_fmadd_pd(ar, b0, lo[Rows]),
      hi[Rows] = _mm256_fmadd_pd(ar, b1, hi[Rows])),
     ...);
  }
  ((_mm256_storeu_pd(c + Rows * n, lo[Rows]),
    _mm256_storeu_pd(c + Rows * n + 4, hi[Rows])),
   ...);
}

/// Rows i0..i0+R-1 of C = op(A) * B: R-row tiles over the 8-column
/// panels, then the n mod 8 tail columns through the scalar block.
template <size_t R>
AUTOCE_TARGET_AVX2 inline void GemmRowPanel(const double* a, size_t a_i_stride,
                                            size_t a_k_stride, const double* b,
                                            double* c, size_t i0, size_t k,
                                            size_t n) {
  const size_t n8 = n - n % 8;
  for (size_t j0 = 0; j0 < n8; j0 += 8) {
    GemmTile(std::make_index_sequence<R>(), a + i0 * a_i_stride, a_i_stride,
             a_k_stride, b + j0, c + i0 * n + j0, k, n);
  }
  if (n8 < n) {
    scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, i0, i0 + R, n8,
                      n);
  }
}

/// C = op(A) * B: 4-row panels, then a 2- or 3-row panel for the m mod 4
/// leftover rows. A single leftover row runs the scalar block (DESIGN.md
/// §5.10); its per-element chains are bit-identical by construction.
AUTOCE_TARGET_AVX2 void GemmPanels(const double* a, size_t a_i_stride,
                                   size_t a_k_stride, const double* b,
                                   double* c, size_t m, size_t k, size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  size_t i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    GemmRowPanel<4>(a, a_i_stride, a_k_stride, b, c, i0, k, n);
  }
  switch (m - i0) {
    case 3:
      GemmRowPanel<3>(a, a_i_stride, a_k_stride, b, c, i0, k, n);
      break;
    case 2:
      GemmRowPanel<2>(a, a_i_stride, a_k_stride, b, c, i0, k, n);
      break;
    case 1:
      scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, i0, m, 0, n);
      break;
  }
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  GemmPanels(a, /*a_i_stride=*/k, /*a_k_stride=*/1, b, c, m, k, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  GemmPanels(a, /*a_i_stride=*/1, /*a_k_stride=*/m, b, c, m, k, n);
}

AUTOCE_TARGET_AVX2 void MatMulNT(const double* a, const double* b, double* c,
                                 size_t m, size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = Dot(a + i * k, b + j * k, k);
  }
}

AUTOCE_TARGET_AVX2 void Axpy(double alpha, const double* x, double* y,
                             size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

AUTOCE_TARGET_AVX2 void AddInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

AUTOCE_TARGET_AVX2 void ScaleInPlace(double* y, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

AUTOCE_TARGET_AVX2 void ReluInPlace(double* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    // Blend, not max: keeps -0.0 and NaN bit-identical to the scalar
    // `if (v < 0) v = 0` branch.
    const __m256d neg = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
    _mm256_storeu_pd(x + i, _mm256_blendv_pd(v, zero, neg));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0) x[i] = 0.0;
  }
}

AUTOCE_TARGET_AVX2 void ReluBackward(const double* pre, double* grad,
                                     size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_loadu_pd(pre + i);
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d off = _mm256_cmp_pd(p, zero, _CMP_LE_OQ);
    _mm256_storeu_pd(grad + i, _mm256_blendv_pd(g, zero, off));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

AUTOCE_TARGET_AVX2 void SumMinMaxI32(const int32_t* x, size_t n, int64_t* sum,
                                     int32_t* min, int32_t* max) {
  __m256i acc = _mm256_setzero_si256();  // four int64 partial sums
  __m256i lo = _mm256_set1_epi32(INT32_MAX);
  __m256i hi = _mm256_set1_epi32(INT32_MIN);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    lo = _mm256_min_epi32(lo, v);
    hi = _mm256_max_epi32(hi, v);
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
  }
  alignas(32) uint64_t sums[4];
  alignas(32) int32_t los[8], his[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), acc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(los), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(his), hi);
  scalar::SumMinMaxI32(x + i, n - i, sum, min, max);
  uint64_t total = static_cast<uint64_t>(*sum);
  for (uint64_t s : sums) total += s;
  *sum = static_cast<int64_t>(total);
  for (int l = 0; l < 8; ++l) {
    *min = std::min(*min, los[l]);
    *max = std::max(*max, his[l]);
  }
}

AUTOCE_TARGET_AVX2 size_t CountEqualI32(const int32_t* a, const int32_t* b,
                                        size_t n) {
  size_t matches = 0;
  size_t i = 0;
  while (n - i >= 8) {
    // A cmpeq lane is -1 per match; 2^28 vectors per block keep each
    // int32 lane count below 2^31.
    const size_t vectors = std::min<size_t>((n - i) / 8, size_t{1} << 28);
    __m256i acc = _mm256_setzero_si256();
    for (size_t v = 0; v < vectors; ++v, i += 8) {
      acc = _mm256_sub_epi32(
          acc, _mm256_cmpeq_epi32(
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
    }
    alignas(32) uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (uint32_t c : lanes) matches += c;
  }
  return matches + scalar::CountEqualI32(a + i, b + i, n - i);
}

/// Rows i..i+3 of the four columns as doubles: rows[r] holds row i + r,
/// column j in lane j (a 4x4 transpose of one load per column).
AUTOCE_TARGET_AVX2 inline void LoadRows(const int32_t* const cols[4], size_t i,
                                        __m256d rows[4]) {
  __m128i c[4];
  for (int j = 0; j < 4; ++j) {
    c[j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols[j] + i));
  }
  const __m128i t0 = _mm_unpacklo_epi32(c[0], c[1]);  // c0[0] c1[0] c0[1] c1[1]
  const __m128i t1 = _mm_unpackhi_epi32(c[0], c[1]);  // c0[2] c1[2] c0[3] c1[3]
  const __m128i t2 = _mm_unpacklo_epi32(c[2], c[3]);  // c2[0] c3[0] c2[1] c3[1]
  const __m128i t3 = _mm_unpackhi_epi32(c[2], c[3]);  // c2[2] c3[2] c2[3] c3[3]
  rows[0] = _mm256_cvtepi32_pd(_mm_unpacklo_epi64(t0, t2));
  rows[1] = _mm256_cvtepi32_pd(_mm_unpackhi_epi64(t0, t2));
  rows[2] = _mm256_cvtepi32_pd(_mm_unpacklo_epi64(t1, t3));
  rows[3] = _mm256_cvtepi32_pd(_mm_unpackhi_epi64(t1, t3));
}

/// Row i of the four columns as doubles, column j in lane j.
AUTOCE_TARGET_AVX2 inline __m256d LoadRow(const int32_t* const cols[4],
                                          size_t i) {
  return _mm256_cvtepi32_pd(
      _mm_setr_epi32(cols[0][i], cols[1][i], cols[2][i], cols[3][i]));
}

/// ss + d * d with d = x - mean.
AUTOCE_TARGET_AVX2 inline __m256d AddSquaredDeviation(__m256d ss, __m256d x,
                                                      __m256d mean) {
  const __m256d d = _mm256_sub_pd(x, mean);
  return _mm256_add_pd(ss, _mm256_mul_pd(d, d));
}

/// s3 += z3 and s4 += z3 * z, with z = (x - mean) / sd and
/// z3 = (z * z) * z.
AUTOCE_TARGET_AVX2 inline void AddStandardizedPowers(__m256d x, __m256d mean,
                                                     __m256d sd, __m256d* s3,
                                                     __m256d* s4) {
  const __m256d z = _mm256_div_pd(_mm256_sub_pd(x, mean), sd);
  const __m256d z3 = _mm256_mul_pd(_mm256_mul_pd(z, z), z);
  *s3 = _mm256_add_pd(*s3, z3);
  *s4 = _mm256_add_pd(*s4, _mm256_mul_pd(z3, z));
}

AUTOCE_TARGET_AVX2 void ColumnLaneSquaredDeviations(
    const int32_t* const cols[kColumnLanes], size_t n,
    const double mean[kColumnLanes], double ss[kColumnLanes]) {
  const __m256d m = _mm256_loadu_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d rows[4];
    LoadRows(cols, i, rows);
    for (const __m256d& x : rows) acc = AddSquaredDeviation(acc, x, m);
  }
  for (; i < n; ++i) acc = AddSquaredDeviation(acc, LoadRow(cols, i), m);
  _mm256_storeu_pd(ss, acc);
}

AUTOCE_TARGET_AVX2 void ColumnLaneStandardizedPowers(
    const int32_t* const cols[kColumnLanes], size_t n,
    const double mean[kColumnLanes], const double sd[kColumnLanes],
    double s3[kColumnLanes], double s4[kColumnLanes]) {
  const __m256d m = _mm256_loadu_pd(mean);
  const __m256d s = _mm256_loadu_pd(sd);
  __m256d acc3 = _mm256_setzero_pd();
  __m256d acc4 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d rows[4];
    LoadRows(cols, i, rows);
    for (const __m256d& x : rows) AddStandardizedPowers(x, m, s, &acc3, &acc4);
  }
  for (; i < n; ++i) AddStandardizedPowers(LoadRow(cols, i), m, s, &acc3, &acc4);
  _mm256_storeu_pd(s3, acc3);
  _mm256_storeu_pd(s4, acc4);
}

}  // namespace avx2

#endif  // AUTOCE_SIMD_HAVE_AVX2

// =====================================================================
// Dispatch plumbing.
// =====================================================================

struct Kernels {
  Level level;
  void (*matmul)(const double*, const double*, double*, size_t, size_t,
                 size_t);
  void (*matmul_tn)(const double*, const double*, double*, size_t, size_t,
                    size_t);
  void (*matmul_nt)(const double*, const double*, double*, size_t, size_t,
                    size_t);
  double (*dot)(const double*, const double*, size_t);
  double (*squared_l2)(const double*, const double*, size_t);
  void (*dot_norms)(const double*, const double*, size_t, double*, double*,
                    double*);
  double (*reduce_sq_sum)(const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*add_in_place)(double*, const double*, size_t);
  void (*scale_in_place)(double*, double, size_t);
  void (*relu_in_place)(double*, size_t);
  void (*relu_backward)(const double*, double*, size_t);
  void (*sum_min_max_i32)(const int32_t*, size_t, int64_t*, int32_t*,
                          int32_t*);
  size_t (*count_equal_i32)(const int32_t*, const int32_t*, size_t);
  void (*column_lane_squared_deviations)(const int32_t* const*, size_t,
                                         const double*, double*);
  void (*column_lane_standardized_powers)(const int32_t* const*, size_t,
                                          const double*, const double*,
                                          double*, double*);
};

constexpr Kernels kScalarTable = {
    Level::kScalar,       scalar::MatMul,       scalar::MatMulTN,
    scalar::MatMulNT,     scalar::Dot,          scalar::SquaredL2,
    scalar::DotNorms,     scalar::ReduceSqSum,  scalar::Axpy,
    scalar::AddInPlace,   scalar::ScaleInPlace, scalar::ReluInPlace,
    scalar::ReluBackward, scalar::SumMinMaxI32, scalar::CountEqualI32,
    scalar::ColumnLaneSquaredDeviations,
    scalar::ColumnLaneStandardizedPowers,
};

#if AUTOCE_SIMD_HAVE_AVX2
constexpr Kernels kAvx2Table = {
    Level::kAvx2,         avx2::MatMul,         avx2::MatMulTN,
    avx2::MatMulNT,       avx2::Dot,            avx2::SquaredL2,
    avx2::DotNorms,       avx2::ReduceSqSum,    avx2::Axpy,
    avx2::AddInPlace,     avx2::ScaleInPlace,   avx2::ReluInPlace,
    avx2::ReluBackward,   avx2::SumMinMaxI32,   avx2::CountEqualI32,
    avx2::ColumnLaneSquaredDeviations,
    avx2::ColumnLaneStandardizedPowers,
};
#endif

/// The table of an available `level`. The scalar table is referenced
/// first: the order of these references sets the order in which GCC 12
/// emits the kernels, and so each kernel's offset in simd.cc.o, and
/// kernel placement alone moves `train` and `fss` timings (ROADMAP
/// item 1).
const Kernels* TableFor(Level level) {
  if (level == Level::kScalar) return &kScalarTable;
#if AUTOCE_SIMD_HAVE_AVX2
  return &kAvx2Table;
#else
  return &kScalarTable;
#endif
}

Level BestAvailable() {
  return LevelAvailable(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

Level ResolveInitialLevel() {
  const char* env = std::getenv("AUTOCE_SIMD");
  if (env == nullptr || env[0] == '\0') return BestAvailable();
  std::string name(env);
  if (name == "auto") return BestAvailable();
  Level requested;
  if (!ParseLevel(name, &requested)) {
    AUTOCE_LOG(Warning) << "AUTOCE_SIMD=" << name
                        << " is not auto|scalar|avx2; using "
                        << LevelName(BestAvailable());
    return BestAvailable();
  }
  if (!LevelAvailable(requested)) {
    AUTOCE_LOG(Warning) << "AUTOCE_SIMD=" << name
                        << " unavailable on this machine/binary; using "
                        << LevelName(BestAvailable());
    return BestAvailable();
  }
  return requested;
}

std::atomic<const Kernels*>& TableRef() {
  static std::atomic<const Kernels*> table{TableFor(ResolveInitialLevel())};
  return table;
}

inline const Kernels& Active() {
  return *TableRef().load(std::memory_order_relaxed);
}

}  // namespace

Level CompiledLevel() {
  return AUTOCE_SIMD_HAVE_AVX2 ? Level::kAvx2 : Level::kScalar;
}

bool LevelAvailable(Level level) {
  if (level == Level::kScalar) return true;
#if AUTOCE_SIMD_HAVE_AVX2
  return level == Level::kAvx2 && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Level ActiveLevel() { return Active().level; }

bool SetActiveLevel(Level level) {
  if (!LevelAvailable(level)) return false;
  TableRef().store(TableFor(level), std::memory_order_relaxed);
  return true;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseLevel(const std::string& name, Level* out) {
  if (name == "scalar") {
    *out = Level::kScalar;
  } else if (name == "avx2") {
    *out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  Active().matmul(a, b, c, m, k, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  Active().matmul_tn(a, b, c, k, m, n);
}

void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n) {
  Active().matmul_nt(a, b, c, m, k, n);
}

double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double SquaredL2(const double* a, const double* b, size_t n) {
  return Active().squared_l2(a, b, n);
}

void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b) {
  Active().dot_norms(a, b, n, dot, norm_a, norm_b);
}

double ReduceSqSum(const double* x, size_t n) {
  return Active().reduce_sq_sum(x, n);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  Active().axpy(alpha, x, y, n);
}

void AddInPlace(double* y, const double* x, size_t n) {
  Active().add_in_place(y, x, n);
}

void ScaleInPlace(double* y, double s, size_t n) {
  Active().scale_in_place(y, s, n);
}

void ReluInPlace(double* x, size_t n) { Active().relu_in_place(x, n); }

void ReluBackward(const double* pre, double* grad, size_t n) {
  Active().relu_backward(pre, grad, n);
}

void SumMinMaxI32(const int32_t* x, size_t n, int64_t* sum, int32_t* min,
                  int32_t* max) {
  Active().sum_min_max_i32(x, n, sum, min, max);
}

size_t CountEqualI32(const int32_t* a, const int32_t* b, size_t n) {
  return Active().count_equal_i32(a, b, n);
}

void ColumnLaneSquaredDeviations(const int32_t* const cols[kColumnLanes],
                                 size_t n, const double mean[kColumnLanes],
                                 double ss[kColumnLanes]) {
  Active().column_lane_squared_deviations(cols, n, mean, ss);
}

void ColumnLaneStandardizedPowers(const int32_t* const cols[kColumnLanes],
                                  size_t n, const double mean[kColumnLanes],
                                  const double sd[kColumnLanes],
                                  double s3[kColumnLanes],
                                  double s4[kColumnLanes]) {
  Active().column_lane_standardized_powers(cols, n, mean, sd, s3, s4);
}

}  // namespace autoce::util::simd
