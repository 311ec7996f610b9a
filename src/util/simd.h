#ifndef AUTOCE_UTIL_SIMD_H_
#define AUTOCE_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace autoce::util::simd {

/// \brief Explicitly vectorized kernels behind a compile-time +
/// runtime dispatch layer (DESIGN.md §5.10).
///
/// Every kernel computes a *fixed reduction order*, identical at every
/// dispatch level, so scalar and AVX2 produce bit-for-bit the same
/// doubles:
///
/// * Map and reduction kernels accumulate by fused multiply-add
///   (`std::fma` in the scalar reference, `vfmadd` in the AVX2 path).
///   fma is correctly rounded by IEEE-754, so the instruction used
///   cannot change the result — only the order of combination could.
/// * Map-style kernels (MatMul, Axpy, elementwise ops) keep one
///   accumulation chain per *output element*, walked in ascending k.
///   Vector lanes hold distinct output elements, so the vector width
///   never touches any chain's order.
/// * Reduction kernels (Dot, SquaredL2, ReduceSqSum, ...) use exactly
///   kReduceLanes = 4 accumulator lanes: element k joins lane (k mod 4)
///   in ascending k, and the lanes combine in the fixed tree
///   (l0 + l2) + (l1 + l3). AVX2 holds the four lanes in one register,
///   the scalar reference in four named doubles — both walk the
///   identical abstract order.
/// * Column-lane kernels hold one sequence per lane and repeat the
///   scalar loop's separately rounded operations in the same order.
///   The library builds with -ffp-contract=off, so no multiply and add
///   is fused behind the code's back.
/// * Integer kernels are exact, so their order cannot change a result.
///
/// The compile-time side is the AUTOCE_SIMD CMake option (auto|scalar):
/// "scalar" compiles the AVX2 path out, and builds for other ISAs have
/// none. The runtime side is CPU detection plus the AUTOCE_SIMD
/// environment override (auto|scalar|avx2), clamped to what was
/// compiled in and what the CPU supports.

/// Dispatch level. Order is "preference": higher enum value is picked
/// first by auto-detection when available.
enum class Level : int {
  kScalar = 0,  ///< portable reference (std::fma chains)
  kAvx2 = 2,    ///< x86-64 AVX2 + FMA
};

/// Number of accumulator lanes in every reduction kernel — part of the
/// determinism contract, NOT a tuning knob (changing it changes bits).
inline constexpr size_t kReduceLanes = 4;

/// Best level compiled into this binary (the AUTOCE_SIMD CMake option
/// can compile the AVX2 path out).
Level CompiledLevel();

/// Whether `level` can run on this machine with this binary.
bool LevelAvailable(Level level);

/// The level kernels currently dispatch to. Resolved on first use:
/// AUTOCE_SIMD env override if set (unavailable requests fall back with
/// a warning), else the best available level.
Level ActiveLevel();

/// Forces the dispatch level (tests sweep scalar vs. best-available).
/// Returns false — and changes nothing — when `level` is unavailable.
/// Must not race in-flight kernels.
bool SetActiveLevel(Level level);

/// "scalar" or "avx2".
const char* LevelName(Level level);

/// Parses a level name (as in AUTOCE_SIMD); returns false on unknown
/// spelling. "auto" is handled by the caller, not here.
bool ParseLevel(const std::string& name, Level* out);

// ---------------------------------------------------------------------
// Matrix product kernels (row-major, C fully overwritten).

/// C(m x n) = A(m x k) * B(k x n). Per-output-element ascending-k fma
/// chains (the B-row-streaming i0/k/j order).
void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n);

/// C(m x n) = A^T * B with A stored (k x m): the gradient kernel.
void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n);

/// C(m x n) = A * B^T with B stored (n x k): per-element 4-lane Dot.
void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n);

// ---------------------------------------------------------------------
// Reductions (4-lane tree; see file comment).

/// sum_k a[k] * b[k].
double Dot(const double* a, const double* b, size_t n);

/// sum_k (a[k] - b[k])^2.
double SquaredL2(const double* a, const double* b, size_t n);

/// dot(a, b), |a|^2, |b|^2 in one pass (three independent lane trees);
/// the cosine-similarity kernel.
void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b);

/// sum_k x[k]^2 (fma, 4-lane tree).
double ReduceSqSum(const double* x, size_t n);

// ---------------------------------------------------------------------
// Elementwise / axpy kernels (one chain per element; no lane trees).

/// y[i] = fma(alpha, x[i], y[i]).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// y[i] += x[i].
void AddInPlace(double* y, const double* x, size_t n);

/// y[i] *= s.
void ScaleInPlace(double* y, double s, size_t n);

/// x[i] = (x[i] < 0.0) ? 0.0 : x[i] — bit-compatible with the branchy
/// scalar ReLU (keeps -0.0 and NaN unchanged).
void ReluInPlace(double* x, size_t n);

/// grad[i] = (pre[i] <= 0.0) ? 0.0 : grad[i] — the ReLU backward mask.
void ReluBackward(const double* pre, double* grad, size_t n);

// ---------------------------------------------------------------------
// Integer kernels over int32 codes.

/// Sum, smallest and largest of x[0..n). The sum is exact whenever it
/// fits in int64 (always for n <= 2^32). For n = 0: sum 0, min
/// INT32_MAX, max INT32_MIN.
void SumMinMaxI32(const int32_t* x, size_t n, int64_t* sum, int32_t* min,
                  int32_t* max);

/// Number of positions i < n with a[i] == b[i].
size_t CountEqualI32(const int32_t* a, const int32_t* b, size_t n);

// ---------------------------------------------------------------------
// Column-lane kernels (see the file comment): lane j walks column j of
// kColumnLanes equal-length int32 columns over rows 0..n-1 in order.

/// Number of columns a column-lane kernel takes; lanes never mix, so
/// this is a width, not part of any result.
inline constexpr size_t kColumnLanes = 4;

/// For each lane j: ss[j] = sum over rows of d * d with
/// d = double(cols[j][i]) - mean[j].
void ColumnLaneSquaredDeviations(const int32_t* const cols[kColumnLanes],
                                 size_t n, const double mean[kColumnLanes],
                                 double ss[kColumnLanes]);

/// For each lane j, with z = (double(cols[j][i]) - mean[j]) / sd[j] and
/// z3 = (z * z) * z: s3[j] = sum of z3 and s4[j] = sum of z3 * z.
void ColumnLaneStandardizedPowers(const int32_t* const cols[kColumnLanes],
                                  size_t n, const double mean[kColumnLanes],
                                  const double sd[kColumnLanes],
                                  double s3[kColumnLanes],
                                  double s4[kColumnLanes]);

}  // namespace autoce::util::simd

#endif  // AUTOCE_UTIL_SIMD_H_
