#ifndef AUTOCE_UTIL_HASH_H_
#define AUTOCE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace autoce::util {

/// FNV-1a 64-bit offset basis.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// FNV-1a 64-bit over `n` bytes, continuing from `h` (start from
/// `kFnv1aBasis`). Stable across runs and platforms: fingerprints,
/// digests and fault decisions are pinned on it.
inline uint64_t Fnv1a(const void* data, std::size_t n,
                      uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnv1aBasis) {
  return Fnv1a(bytes.data(), bytes.size(), h);
}

/// SplitMix64: the finalizer of `x` plus the golden-ratio increment.
/// Consecutive states `s, s + 0x9E3779B97F4A7C15, ...` give the
/// generator's output stream.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_HASH_H_
