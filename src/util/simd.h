#ifndef AUTOCE_UTIL_SIMD_H_
#define AUTOCE_UTIL_SIMD_H_

#include <cstddef>
#include <string>

namespace autoce::util::simd {

/// \brief Explicitly vectorized kernels behind a compile-time +
/// runtime dispatch layer (DESIGN.md §5.10).
///
/// Every kernel computes a *fixed reduction order*, identical at every
/// dispatch level, so scalar, AVX2, and NEON produce bit-for-bit the
/// same doubles:
///
/// * Accumulation steps are fused multiply-adds (`std::fma` in the
///   scalar reference; `vfmadd` / `vfmaq` in the vector paths). fma is
///   correctly rounded by IEEE-754, so the instruction used cannot
///   change the result — only the order of combination could.
/// * Map-style kernels (MatMul, Axpy, elementwise ops) keep one
///   accumulation chain per *output element*, walked in ascending k.
///   Vector lanes hold distinct output elements, so the vector width
///   never touches any chain's order.
/// * Reduction kernels (Dot, SquaredL2, ReduceSum, ...) use exactly
///   kReduceLanes = 4 accumulator lanes: element k joins lane (k mod 4)
///   in ascending k, and the lanes combine in the fixed tree
///   (l0 + l2) + (l1 + l3). AVX2 holds the four lanes in one register,
///   NEON in two, the scalar reference in four named doubles — all
///   three walk the identical abstract order.
///
/// The compile-time side is the AUTOCE_SIMD CMake option
/// (auto|avx2|neon|scalar); the runtime side is CPU detection plus the
/// AUTOCE_SIMD environment override (same spellings), clamped to what
/// was compiled in and what the CPU supports.

/// Dispatch level. Order is "preference": higher enum value is picked
/// first by auto-detection when available.
enum class Level : int {
  kScalar = 0,  ///< portable reference (std::fma chains)
  kNeon = 1,    ///< aarch64 NEON (baseline on that ISA)
  kAvx2 = 2,    ///< x86-64 AVX2 + FMA
};

/// Number of accumulator lanes in every reduction kernel — part of the
/// determinism contract, NOT a tuning knob (changing it changes bits).
inline constexpr size_t kReduceLanes = 4;

/// Best level compiled into this binary (the AUTOCE_SIMD CMake option
/// can compile the vector paths out entirely).
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

/// "scalar", "avx2", or "neon".
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

/// sum_k x[k] (plain adds, 4-lane tree).
double ReduceSum(const double* x, size_t n);

/// sum_k x[k]^2 (fma, 4-lane tree).
double ReduceSqSum(const double* x, size_t n);

// ---------------------------------------------------------------------
// Elementwise / axpy kernels (one chain per element; no lane trees).

/// y[i] = fma(alpha, x[i], y[i]).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// y[i] += x[i].
void AddInPlace(double* y, const double* x, size_t n);

/// y[i] -= x[i].
void SubInPlace(double* y, const double* x, size_t n);

/// y[i] *= x[i].
void MulInPlace(double* y, const double* x, size_t n);

/// y[i] *= s.
void ScaleInPlace(double* y, double s, size_t n);

/// x[i] = (x[i] < 0.0) ? 0.0 : x[i] — bit-compatible with the branchy
/// scalar ReLU (keeps -0.0 and NaN unchanged).
void ReluInPlace(double* x, size_t n);

/// grad[i] = (pre[i] <= 0.0) ? 0.0 : grad[i] — the ReLU backward mask.
void ReluBackward(const double* pre, double* grad, size_t n);

}  // namespace autoce::util::simd

#endif  // AUTOCE_UTIL_SIMD_H_
