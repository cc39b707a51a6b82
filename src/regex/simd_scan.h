// SIMD byte-scan primitives for the host-side matcher backends.
//
// Everything here is a *candidate finder*: given a haystack and a small
// set of target bytes, return the first position whose byte is in the
// set (or, for the pair scan, whose byte and the byte a fixed distance
// later are each in their own set). The callers (regex/bitparallel, hw/kernel_backend) verify
// candidates with exact logic, so these scans only ever have to be
// conservative-complete, never precise — which is what makes the three
// implementations (AVX2, SSE2, scalar table walk) trivially
// bit-equivalent.
//
// Dispatch is by runtime CPUID (GCC/Clang function multi-targeting with
// __builtin_cpu_supports), so one binary runs the widest path the host
// supports and falls back to scalar everywhere else. The active level can
// be capped for testing with DOPPIO_SIMD_LEVEL=scalar|sse2|avx2 — the
// equivalence sweeps run every reachable level against the scalar
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace doppio {
namespace simd {

/// Widest vector path a scan may take, in increasing order.
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Stable short tag ("scalar" / "sse2" / "avx2") for stats and benches.
const char* SimdLevelName(SimdLevel level);

/// What the CPU supports (CPUID; computed once). x86-64 always reports at
/// least kSse2; other architectures report kScalar.
SimdLevel DetectedSimdLevel();

/// DetectedSimdLevel() capped by DOPPIO_SIMD_LEVEL when set (unknown
/// values are ignored). Read per call so tests can flip the cap.
SimdLevel ActiveSimdLevel();

/// Maximum distinct target bytes FindByteSet accepts.
inline constexpr int kMaxScanBytes = 4;

/// First index >= `from` whose byte equals one of bytes[0..n), or npos.
/// n must be in [1, kMaxScanBytes]. All levels return identical results.
size_t FindByteSet(std::string_view haystack, size_t from,
                   const uint8_t* bytes, int n);

/// Same, at an explicit level (equivalence tests; levels above
/// DetectedSimdLevel() are clamped to it).
size_t FindByteSetAtLevel(std::string_view haystack, size_t from,
                          const uint8_t* bytes, int n, SimdLevel level);

/// A scan target: bytes[0..count), count in [1, kMaxScanBytes].
struct ByteSet {
  uint8_t bytes[kMaxScanBytes] = {};
  int count = 0;
};

/// Two-position candidate scan: the first index c >= `from` whose byte is
/// in `first` and whose byte at c + `distance` is in `second`, or npos.
/// Positions whose partner would lie at or past the haystack's end are
/// never candidates, and no level reads a byte outside the haystack. All
/// levels return identical results.
size_t FindBytePairAtLevel(std::string_view haystack, size_t from,
                           const ByteSet& first, const ByteSet& second,
                           size_t distance, SimdLevel level);

}  // namespace simd
}  // namespace doppio
