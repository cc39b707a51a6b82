// LRU cache of compiled regex programs, shared across queries and tenants.
//
// The paper's config-vector compile is cheap (< 1 µs), but every
// configuration the simulator generates also carries its compiled PU
// program (RegexConfig::program, hw/pu_kernel) — decode, byte-class
// partition, possibly literal-stage extraction — which device jobs, host
// slices and the cost model share instead of recompiling. Concurrent
// clients overwhelmingly re-issue the same handful of patterns (the
// Fig. 11 workload), so caching the config caches that one compilation
// too: a cached pattern is generated and compiled once, not once per
// query. The cache looks up by
// (pattern, CompileOptions) but stores by the *compiled-program
// fingerprint* — the canonical config-vector bytes — so textually
// different patterns that compile to the identical program (e.g. the
// case-insensitive spellings of one literal) alias onto one LRU slot
// instead of occupying two. Every alias of a slot promotes and keeps the
// same immutable RegexConfig (and with it its program) alive; a cache hit
// executes the exact same program a cold compile would have produced.
//
// The cache also holds *set programs* (docs/PATTERN_SETS.md): union NFAs
// with tagged accepts compiled from several cached members. Set entries
// are keyed on the sorted unique member fingerprints, so the same set of
// patterns coalesced in any order — or spelled with aliasing textual
// variants — resolves to one cached compilation, and the sorted order IS
// the output-stream order.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "hw/config_compiler.h"
#include "hw/device_config.h"
#include "regex/matcher.h"

namespace doppio {
namespace sched {

/// One cached compilation: the configuration vector (what the device
/// loads) with its compiled PU program (config.program — what the
/// functional pass and the CPU route execute). Immutable once inserted;
/// shared by reference.
struct CachedProgram {
  RegexConfig config;
  /// Canonical identity: the encoded config-vector bytes. Two patterns
  /// with equal fingerprints are semantically identical by construction
  /// (the device consumes nothing but these bytes).
  std::string fingerprint;
};

/// One cached *set* compilation: the union NFA with tagged accepts over
/// `member_fingerprints` (sorted unique — pattern k of the sorted order
/// reports on output stream k). Immutable once inserted.
struct CachedSetProgram {
  RegexConfig config;
  /// Sorted unique member fingerprints; index in this vector = the
  /// member's output stream in the compiled program.
  std::vector<std::string> member_fingerprints;

  /// Stream index of `fingerprint`, or -1 when it is not a member.
  int StreamOf(std::string_view fingerprint) const;
};

class ProgramCache {
 public:
  /// `capacity` >= 1: the maximum number of distinct compiled programs
  /// kept (fingerprint slots, however many textual aliases each has); the
  /// least-recently-used slot is evicted beyond that. Set programs are
  /// held in a second LRU of the same capacity.
  ProgramCache(const DeviceConfig& device, int capacity);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(ProgramCache);

  /// Returns the cached compilation for (pattern, options), compiling and
  /// inserting it on a miss. A miss whose compiled fingerprint matches an
  /// existing slot aliases onto that slot (no second copy is kept — the
  /// double-compile is discarded). Compile failures (e.g.
  /// CapacityExceeded when the pattern does not fit the deployed
  /// geometry) are returned and NOT cached — a failed pattern never
  /// occupies a slot. Thread-safe.
  Result<std::shared_ptr<const CachedProgram>> GetOrCompile(
      std::string_view pattern, const CompileOptions& options = {});

  /// Returns the cached set compilation over `members` (each obtained
  /// from GetOrCompile), compiling the union NFA on a miss. Members are
  /// deduplicated by fingerprint and ordered canonically (sorted
  /// fingerprints), so the same pattern set in any order resolves to one
  /// entry. Fails with CapacityExceeded — not cached — when the union
  /// does not fit one PU; the caller falls back to multi-pass execution.
  Result<std::shared_ptr<const CachedSetProgram>> GetOrCompileSet(
      const std::vector<std::shared_ptr<const CachedProgram>>& members);

  /// Canonical cache key for (pattern, options) — exposed so tests and the
  /// scheduler's coalescing pass can compare compatibility without holding
  /// a CachedProgram.
  static std::string MakeKey(std::string_view pattern,
                             const CompileOptions& options);

  // Lifetime counters (also mirrored in the metrics registry under
  // doppio.sched.program_cache.{hits,misses,evictions} and
  // doppio.sched.set_compile.{cache_hits,cache_misses}).
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  int64_t set_hits() const;
  int64_t set_misses() const;
  int size() const;
  int set_size() const;
  int capacity() const { return capacity_; }

  /// Programs whose memory is actually live: resident slots plus entries
  /// evicted by LRU pressure while a wave still holds the shared_ptr
  /// (their memory is not reclaimed until the last reference drops).
  /// Counting only resident slots under-reports both gauges — the
  /// accounting drift this pair of accessors (and the
  /// doppio.sched.program_cache.{size,live_bytes} gauges) fixes.
  int live_size() const;
  /// Estimated bytes of all live programs (config-vector bytes plus a
  /// fixed per-entry overhead for the compiled kernel structures).
  int64_t live_bytes() const;
  /// Misses whose fingerprint matched an evicted-but-still-referenced
  /// entry and re-adopted it instead of keeping a second live copy (which
  /// would also have re-counted its aliases as fresh alias_shares).
  int64_t readoptions() const;

  /// Keys most-recently-used first — the exact eviction order, for tests.
  /// Each slot is reported once, by the textual key that first created it
  /// (aliases promote the slot but do not add entries here).
  std::vector<std::string> KeysMruFirst() const;

 private:
  /// One LRU slot: a compiled program plus every textual key aliased to
  /// it. `aliases.front()` is the key that first compiled the slot.
  struct Node {
    std::shared_ptr<const CachedProgram> entry;
    std::vector<std::string> aliases;
  };

  const DeviceConfig device_;
  const int capacity_;

  mutable std::mutex mutex_;
  /// Front = most recently used; back = next eviction victim.
  std::list<Node> lru_;
  std::unordered_map<std::string, std::list<Node>::iterator> by_alias_;
  std::unordered_map<std::string, std::list<Node>::iterator> by_fingerprint_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t readoptions_ = 0;

  /// Evicted slots whose program may still be referenced by an in-flight
  /// wave: (fingerprint, weak ref). Pruned lazily once the last strong
  /// reference drops. Live accounting spans lru_ plus the still-lockable
  /// entries here; a miss whose fingerprint matches a lockable entry
  /// re-adopts the original program (same pointer — no duplicate live
  /// copy, no alias_shares double count).
  std::list<std::pair<std::string, std::weak_ptr<const CachedProgram>>>
      evicted_live_;

  /// Drops evicted_live_ entries whose program has been released.
  /// Requires mutex_.
  void PruneEvictedLocked();
  /// Recomputes the doppio.sched.program_cache.{size,live_bytes} gauges
  /// from lru_ + evicted_live_. Requires mutex_.
  void RefreshGaugesLocked();
  int64_t LiveBytesLocked() const;

  /// Set programs: separate LRU keyed on the joined sorted member
  /// fingerprints.
  std::list<std::pair<std::string, std::shared_ptr<const CachedSetProgram>>>
      set_lru_;
  std::unordered_map<std::string, decltype(set_lru_)::iterator> set_index_;
  int64_t set_hits_ = 0;
  int64_t set_misses_ = 0;
};

}  // namespace sched
}  // namespace doppio
