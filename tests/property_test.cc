// Property-based tests: randomized inputs cross-checking independent
// implementations against each other (the strongest evidence we have that
// the simulated hardware implements the same language as the software
// matchers).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>

#include "common/random.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/processing_unit.h"
#include "mem/arena.h"
#include "mem/slab_allocator.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/nfa_matcher.h"
#include "regex/token_extractor.h"
#include "regex/token_nfa.h"

namespace doppio {
namespace {

// Random patterns from the hardware-mappable grammar: alternations of
// literal/class tokens glued by adjacency or '.*', with optional '+'.
std::string RandomHwPattern(Rng* rng) {
  auto token = [&] {
    switch (rng->NextBounded(4)) {
      case 0:
        return rng->FromAlphabet("abc", 1 + rng->NextBounded(3));
      case 1:
        return std::string("[a-c]");
      case 2:
        return std::string("[0-9]");
      default:
        return rng->FromAlphabet("xyz", 1 + rng->NextBounded(2));
    }
  };
  std::string pattern;
  int segments = 1 + static_cast<int>(rng->NextBounded(3));
  for (int s = 0; s < segments; ++s) {
    if (s > 0) pattern += rng->Bernoulli(0.6) ? ".*" : "";
    if (rng->Bernoulli(0.3)) {
      pattern += "(" + token() + "|" + token() + ")";
    } else {
      std::string t = token();
      pattern += t;
      if (t.size() == 5 && rng->Bernoulli(0.4)) pattern += "+";  // class+
    }
  }
  return pattern;
}

TEST(PropertyTest, SoftwareMatchersAgreeOnRandomPatterns) {
  Rng rng(2024);
  const std::string alphabet = "abcxyz019 ";
  int checked = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto dfa = DfaMatcher::Compile(pattern);
    auto nfa = NfaMatcher::Compile(pattern);
    auto bt = BacktrackMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok()) << pattern;
    ASSERT_TRUE(nfa.ok()) << pattern;
    ASSERT_TRUE(bt.ok()) << pattern;
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(32));
      MatchResult md = (*dfa)->Find(input);
      MatchResult mn = (*nfa)->Find(input);
      MatchResult mb = (*bt)->Find(input);
      ASSERT_EQ(md, mn) << pattern << " on '" << input << "'";
      ASSERT_EQ(md.matched, mb.matched)
          << pattern << " on '" << input << "'";
      ++checked;
    }
  }
  EXPECT_GT(checked, 3000);
}

TEST(PropertyTest, HardwareAgreesWithSoftwareOnRandomPatterns) {
  Rng rng(77);
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  ProcessingUnit pu;
  const std::string alphabet = "abcxyz019 ";
  int mapped = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;  // e.g. trivially-true pattern
    ++mapped;
    auto program = CompiledPuProgram::Compile(config->vector, device);
    ASSERT_TRUE(program.ok()) << pattern;
    pu.Configure(*program);
    auto dfa = DfaMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok());
    TokenNfaMatcher reference(config->nfa);
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(32));
      MatchResult sw = (*dfa)->Find(input);
      MatchResult ref = reference.Find(input);
      uint16_t hw = pu.ProcessString(input);
      ASSERT_EQ(ref, sw) << pattern << " on '" << input << "'";
      ASSERT_EQ(hw != 0, sw.matched) << pattern << " on '" << input << "'";
      if (sw.matched) {
        ASSERT_EQ(static_cast<int32_t>(hw), sw.end)
            << pattern << " on '" << input << "'";
      }
    }
  }
  EXPECT_GT(mapped, 30);
}

TEST(PropertyTest, SimdBackendAgreesWithScalarOnRandomPatterns) {
  // The simd_served assertion below reads the registry's *unforced*
  // choice; CI runs this suite with DOPPIO_FORCE_BACKEND set.
  unsetenv("DOPPIO_FORCE_BACKEND");
  Rng rng(4096);
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  const BackendRegistry& registry = BackendRegistry::Global();
  const std::string alphabet = "abcxyz019 ";
  int mapped = 0;
  int simd_served = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;
    auto program = CompiledPuProgram::Compile(config->vector, device);
    ASSERT_TRUE(program.ok()) << pattern;
    ++mapped;
    if (registry.ChooseHost(**program).id() == BackendId::kCpuSimd) {
      ++simd_served;
    }
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(*program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(*program);
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(48));
      const uint16_t expect = scalar->Match(input);
      ASSERT_EQ(simd->Match(input), expect)
          << pattern << " on '" << input << "' kernel "
          << simd->kernel_name();
    }
  }
  EXPECT_GT(mapped, 30);
  // The random grammar is dominated by chain/small-escape shapes; the
  // sweep must actually exercise the accelerated paths, not just the
  // internal fallback.
  EXPECT_GT(simd_served, 10);
}

TEST(PropertyTest, ConfigVectorRoundTripsRandomPatterns) {
  Rng rng(5);
  for (int p = 0; p < 100; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto nfa = ExtractTokenNfa(pattern);
    if (!nfa.ok()) continue;
    auto encoded = ConfigVector::Encode(*nfa);
    ASSERT_TRUE(encoded.ok()) << pattern;
    auto decoded = encoded->Decode();
    ASSERT_TRUE(decoded.ok()) << pattern;
    ASSERT_EQ(decoded->tokens.size(), nfa->tokens.size());
    ASSERT_EQ(decoded->states.size(), nfa->states.size());
    // Re-encode must be byte-identical (canonical form).
    auto re = ConfigVector::Encode(*decoded);
    ASSERT_TRUE(re.ok());
    EXPECT_EQ(re->bytes(), encoded->bytes()) << pattern;
  }
}

TEST(PropertyTest, SlabAllocatorRandomWorkload) {
  SharedArena arena(32 * kSharedPageBytes);
  SlabAllocator slab(&arena);
  Rng rng(11);
  std::map<void*, std::pair<int64_t, uint8_t>> live;  // ptr -> (size, tag)

  for (int step = 0; step < 2000; ++step) {
    if (live.size() < 40 && rng.Bernoulli(0.6)) {
      int64_t size = 1 + static_cast<int64_t>(
                             rng.NextBounded(3 * 1024 * 1024));
      auto p = slab.Allocate(size);
      if (!p.ok()) continue;  // arena full is acceptable
      uint8_t tag = static_cast<uint8_t>(rng.NextBounded(256));
      // Write the whole allocation; overlap corruption would surface as a
      // tag mismatch on free.
      std::memset(*p, tag, static_cast<size_t>(size));
      ASSERT_EQ(live.count(*p), 0u);
      live[*p] = {size, tag};
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBounded(live.size()));
      auto [size, tag] = it->second;
      const uint8_t* bytes = static_cast<const uint8_t*>(it->first);
      ASSERT_EQ(bytes[0], tag);
      ASSERT_EQ(bytes[size - 1], tag);
      ASSERT_EQ(bytes[size / 2], tag);
      ASSERT_TRUE(slab.Free(it->first).ok());
      live.erase(it);
    }
  }
  for (auto& [ptr, info] : live) {
    ASSERT_TRUE(slab.Free(ptr).ok());
  }
  SlabStats stats = slab.stats();
  EXPECT_EQ(stats.allocations, stats.frees);
}

TEST(PropertyTest, ArenaNeverHandsOutOverlappingRuns) {
  SharedArena arena(16 * kSharedPageBytes);
  Rng rng(3);
  std::vector<PageRun> live;
  for (int step = 0; step < 500; ++step) {
    if (rng.Bernoulli(0.55)) {
      auto run = arena.AllocatePages(
          1 + static_cast<int64_t>(rng.NextBounded(4 * kSharedPageBytes)));
      if (!run.ok()) continue;
      for (const PageRun& other : live) {
        bool disjoint =
            run->data + run->size_bytes() <= other.data ||
            other.data + other.size_bytes() <= run->data;
        ASSERT_TRUE(disjoint);
      }
      live.push_back(*run);
    } else if (!live.empty()) {
      size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(arena.FreePages(live[idx]).ok());
      live.erase(live.begin() + static_cast<int64_t>(idx));
    }
  }
}

TEST(PropertyTest, BoundedRepeatsEquivalentToExpansion) {
  // a{n,m} must behave exactly like its manual expansion.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.NextBounded(3));
    int m = n + static_cast<int>(rng.NextBounded(3));
    if (m == 0) continue;
    std::string bounded =
        "x(ab){" + std::to_string(n) + "," + std::to_string(m) + "}y";
    std::string expanded = "x";
    for (int i = 0; i < n; ++i) expanded += "ab";
    for (int i = n; i < m; ++i) expanded += "(ab)?";
    expanded += "y";
    auto a = DfaMatcher::Compile(bounded);
    auto b = DfaMatcher::Compile(expanded);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (int i = 0; i < 40; ++i) {
      std::string input = rng.FromAlphabet("abxy", rng.NextBounded(16));
      EXPECT_EQ((*a)->Find(input), (*b)->Find(input))
          << bounded << " vs " << expanded << " on " << input;
    }
  }
}

}  // namespace
}  // namespace doppio
