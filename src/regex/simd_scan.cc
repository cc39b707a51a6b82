#include "regex/simd_scan.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define DOPPIO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace doppio {
namespace simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel DetectedSimdLevel() {
#ifdef DOPPIO_SIMD_X86
  static const SimdLevel detected = [] {
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    return SimdLevel::kSse2;  // x86-64 baseline
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* cap = std::getenv("DOPPIO_SIMD_LEVEL");
  if (cap != nullptr) {
    if (std::strcmp(cap, "scalar") == 0) {
      level = SimdLevel::kScalar;
    } else if (std::strcmp(cap, "sse2") == 0 && level > SimdLevel::kSse2) {
      level = SimdLevel::kSse2;
    } else if (std::strcmp(cap, "avx2") == 0) {
      // Cap at avx2 == no cap; unknown values are also ignored.
    }
  }
  return level;
}

namespace {

size_t FindByteSetScalar(std::string_view haystack, size_t from,
                         const uint8_t* bytes, int n) {
  if (n == 1) {
    // libc's memchr is itself vectorized; this is the reference the wider
    // paths must agree with, and the fast path for single-byte sets.
    if (from >= haystack.size()) return std::string_view::npos;
    const void* hit = std::memchr(haystack.data() + from, bytes[0],
                                  haystack.size() - from);
    return hit == nullptr
               ? std::string_view::npos
               : static_cast<size_t>(static_cast<const char*>(hit) -
                                     haystack.data());
  }
  bool table[256] = {};
  for (int k = 0; k < n; ++k) table[bytes[k]] = true;
  for (size_t i = from; i < haystack.size(); ++i) {
    if (table[static_cast<uint8_t>(haystack[i])]) return i;
  }
  return std::string_view::npos;
}

bool InSet(uint8_t byte, const ByteSet& set) {
  for (int k = 0; k < set.count; ++k) {
    if (set.bytes[k] == byte) return true;
  }
  return false;
}

size_t FindBytePairScalar(std::string_view haystack, size_t from,
                          const ByteSet& first, const ByteSet& second,
                          size_t distance) {
  const size_t size = haystack.size();
  if (distance >= size) return std::string_view::npos;
  const size_t end = size - distance;  // candidates c < end
  const uint8_t* data = reinterpret_cast<const uint8_t*>(haystack.data());
  for (size_t c = from; c < end; ++c) {
    if (first.count == 1) {
      const void* hit = std::memchr(data + c, first.bytes[0], end - c);
      if (hit == nullptr) break;
      c = static_cast<size_t>(static_cast<const uint8_t*>(hit) - data);
    } else if (!InSet(data[c], first)) {
      continue;
    }
    if (InSet(data[c + distance], second)) return c;
  }
  return std::string_view::npos;
}

#ifdef DOPPIO_SIMD_X86

size_t FindByteSetSse2(std::string_view haystack, size_t from,
                       const uint8_t* bytes, int n) {
  const char* data = haystack.data();
  const size_t size = haystack.size();
  __m128i needles[kMaxScanBytes];
  for (int k = 0; k < n; ++k) {
    needles[k] = _mm_set1_epi8(static_cast<char>(bytes[k]));
  }
  size_t i = from;
  for (; i + 16 <= size; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    __m128i hit = _mm_cmpeq_epi8(v, needles[0]);
    for (int k = 1; k < n; ++k) {
      hit = _mm_or_si128(hit, _mm_cmpeq_epi8(v, needles[k]));
    }
    const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(hit));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return FindByteSetScalar(haystack, i, bytes, n);
}

__attribute__((target("avx2"))) size_t FindByteSetAvx2(
    std::string_view haystack, size_t from, const uint8_t* bytes, int n) {
  const char* data = haystack.data();
  const size_t size = haystack.size();
  __m256i needles[kMaxScanBytes];
  for (int k = 0; k < n; ++k) {
    needles[k] = _mm256_set1_epi8(static_cast<char>(bytes[k]));
  }
  size_t i = from;
  for (; i + 32 <= size; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i hit = _mm256_cmpeq_epi8(v, needles[0]);
    for (int k = 1; k < n; ++k) {
      hit = _mm256_or_si256(hit, _mm256_cmpeq_epi8(v, needles[k]));
    }
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(hit));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return FindByteSetSse2(haystack, i, bytes, n);
}

size_t FindBytePairSse2(std::string_view haystack, size_t from,
                        const ByteSet& first, const ByteSet& second,
                        size_t distance) {
  const char* data = haystack.data();
  const size_t size = haystack.size();
  __m128i a[kMaxScanBytes];
  __m128i b[kMaxScanBytes];
  for (int k = 0; k < first.count; ++k) {
    a[k] = _mm_set1_epi8(static_cast<char>(first.bytes[k]));
  }
  for (int k = 0; k < second.count; ++k) {
    b[k] = _mm_set1_epi8(static_cast<char>(second.bytes[k]));
  }
  size_t i = from;
  for (; i + distance + 16 <= size; i += 16) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i v1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(data + i + distance));
    __m128i h0 = _mm_cmpeq_epi8(v0, a[0]);
    for (int k = 1; k < first.count; ++k) {
      h0 = _mm_or_si128(h0, _mm_cmpeq_epi8(v0, a[k]));
    }
    __m128i h1 = _mm_cmpeq_epi8(v1, b[0]);
    for (int k = 1; k < second.count; ++k) {
      h1 = _mm_or_si128(h1, _mm_cmpeq_epi8(v1, b[k]));
    }
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_and_si128(h0, h1)));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return FindBytePairScalar(haystack, i, first, second, distance);
}

__attribute__((target("avx2"))) size_t FindBytePairAvx2(
    std::string_view haystack, size_t from, const ByteSet& first,
    const ByteSet& second, size_t distance) {
  const char* data = haystack.data();
  const size_t size = haystack.size();
  __m256i a[kMaxScanBytes];
  __m256i b[kMaxScanBytes];
  for (int k = 0; k < first.count; ++k) {
    a[k] = _mm256_set1_epi8(static_cast<char>(first.bytes[k]));
  }
  for (int k = 0; k < second.count; ++k) {
    b[k] = _mm256_set1_epi8(static_cast<char>(second.bytes[k]));
  }
  size_t i = from;
  for (; i + distance + 32 <= size; i += 32) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i + distance));
    __m256i h0 = _mm256_cmpeq_epi8(v0, a[0]);
    for (int k = 1; k < first.count; ++k) {
      h0 = _mm256_or_si256(h0, _mm256_cmpeq_epi8(v0, a[k]));
    }
    __m256i h1 = _mm256_cmpeq_epi8(v1, b[0]);
    for (int k = 1; k < second.count; ++k) {
      h1 = _mm256_or_si256(h1, _mm256_cmpeq_epi8(v1, b[k]));
    }
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_and_si256(h0, h1)));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return FindBytePairSse2(haystack, i, first, second, distance);
}

#endif  // DOPPIO_SIMD_X86

}  // namespace

size_t FindByteSetAtLevel(std::string_view haystack, size_t from,
                          const uint8_t* bytes, int n, SimdLevel level) {
  if (level > DetectedSimdLevel()) level = DetectedSimdLevel();
#ifdef DOPPIO_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return FindByteSetAvx2(haystack, from, bytes, n);
    case SimdLevel::kSse2:
      return FindByteSetSse2(haystack, from, bytes, n);
    case SimdLevel::kScalar:
      break;
  }
#endif
  return FindByteSetScalar(haystack, from, bytes, n);
}

size_t FindBytePairAtLevel(std::string_view haystack, size_t from,
                           const ByteSet& first, const ByteSet& second,
                           size_t distance, SimdLevel level) {
  if (level > DetectedSimdLevel()) level = DetectedSimdLevel();
#ifdef DOPPIO_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return FindBytePairAvx2(haystack, from, first, second, distance);
    case SimdLevel::kSse2:
      return FindBytePairSse2(haystack, from, first, second, distance);
    case SimdLevel::kScalar:
      break;
  }
#endif
  return FindBytePairScalar(haystack, from, first, second, distance);
}

size_t FindByteSet(std::string_view haystack, size_t from,
                   const uint8_t* bytes, int n) {
  return FindByteSetAtLevel(haystack, from, bytes, n, ActiveSimdLevel());
}

}  // namespace simd
}  // namespace doppio
