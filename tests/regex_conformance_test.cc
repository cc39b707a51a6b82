// Dialect conformance: a battery of pattern/input/verdict triples run
// through every execution strategy that supports the pattern — the lazy
// DFA, the NFA simulation, the backtracker, and (for hardware-mappable
// patterns) the token-NFA reference and the cycle-level PU.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "db/hudf.h"
#include "hal/hal.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/processing_unit.h"
#include "hw/pu_kernel.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/nfa_matcher.h"
#include "regex/token_extractor.h"
#include "regex/token_nfa.h"

namespace doppio {
namespace {

struct Conformance {
  const char* pattern;
  const char* input;
  bool matched;
};

const Conformance kCases[] = {
    // Literals and concatenation.
    {"a", "a", true},
    {"a", "b", false},
    {"abc", "zabcz", true},
    {"abc", "ab c", false},
    {"abc", "", false},
    // Alternation, incl. nested and uneven lengths.
    {"a|b", "b", true},
    {"a|b", "c", false},
    {"(ab|c)d", "abd", true},
    {"(ab|c)d", "cd", true},
    {"(ab|c)d", "ad", false},
    {"(a|b)(c|d)", "bd", true},
    {"(a|b)(c|d)", "ba", false},
    {"(abc|abd|abe)", "xabdy", true},
    // Kleene star / plus / optional.
    {"ab*c", "ac", true},
    {"ab*c", "abbbc", true},
    {"ab*c", "adc", false},
    {"ab+c", "ac", false},
    {"ab+c", "abc", true},
    {"ab?c", "ac", true},
    {"ab?c", "abc", true},
    {"ab?c", "abbc", false},
    {"(ab)*c", "c", true},
    {"(ab)*c", "ababc", true},
    {"(ab)*c", "abac", true},  // zero repetitions: the bare 'c' matches
    {"d(ab)*c", "dabac", false},  // anchored by 'd': broken 'ab' run
    // Classes and ranges.
    {"[abc]", "zbz", true},
    {"[abc]", "zdz", false},
    {"[a-c]x", "bx", true},
    {"[a-c]x", "dx", false},
    {"[^a-c]x", "dx", true},
    {"[^a-c]x", "bx", false},
    {"[0-9][0-9]", "a42b", true},
    {"[0-9][0-9]", "a4b2", false},
    {"[a-zA-Z0-9]", "!", false},
    {"[a-zA-Z0-9]", "Q", true},
    // Dot.
    {"a.c", "abc", true},
    {"a.c", "ac", false},
    {"a.c", "a\nc", true},  // '.' is any byte in this dialect
    {"a..d", "abcd", true},
    // Bounded repetition.
    {"a{3}", "aa", false},
    {"a{3}", "aaa", true},
    {"a{2,4}b", "ab", false},
    {"a{2,4}b", "aab", true},
    {"a{2,4}b", "aaaab", true},
    {"a{2,4}b", "aaaaab", true},  // unanchored: suffix aaaab matches
    {"(ab){2}", "abab", true},
    {"(ab){2}", "abxab", false},
    {"a{0,2}b", "b", true},
    {"a{2,}b", "aab", true},
    {"a{2,}b", "ab", false},
    // Escapes.
    {R"(a\.b)", "a.b", true},
    {R"(a\.b)", "axb", false},
    {R"(a\\b)", "a\\b", true},
    {R"(\d+)", "x9y", true},
    {R"(\d+)", "xyz", false},
    {R"(\w)", "_", true},
    {R"(\s)", "a b", true},
    {R"(a\:b)", "a:b", true},
    // Mixed structures from the paper's domain.
    {R"((Strasse|Str\.))", "Berner Str. 7", true},
    {R"((Strasse|Str\.))", "Berner Strx 7", false},
    {"[0-9]+(USD|EUR|GBP)", "0EUR", true},
    {"[0-9]+(USD|EUR|GBP)", "EUR0", false},
    {"(a|b).*c.*d", "xaycxd", true},
    {"(a|b).*c.*d", "xdycxa", false},
    {"x.*x", "xx", true},
    {"x.*x", "x", false},
    // Earliest-end subtleties.
    {"a+b", "aab", true},
    {"(a*)(b*)c", "c", true},
    {"ab|abc", "abc", true},
};

class ConformanceTest : public ::testing::TestWithParam<Conformance> {};

TEST_P(ConformanceTest, AllSoftwareStrategiesAgree) {
  const Conformance& c = GetParam();
  auto dfa = DfaMatcher::Compile(c.pattern);
  auto nfa = NfaMatcher::Compile(c.pattern);
  auto bt = BacktrackMatcher::Compile(c.pattern);
  ASSERT_TRUE(dfa.ok()) << c.pattern;
  ASSERT_TRUE(nfa.ok()) << c.pattern;
  ASSERT_TRUE(bt.ok()) << c.pattern;

  MatchResult d = (*dfa)->Find(c.input);
  EXPECT_EQ(d.matched, c.matched) << c.pattern << " on '" << c.input << "'";
  EXPECT_EQ((*nfa)->Find(c.input), d)
      << c.pattern << " on '" << c.input << "'";
  EXPECT_EQ((*bt)->Find(c.input).matched, c.matched)
      << c.pattern << " on '" << c.input << "'";
}

TEST_P(ConformanceTest, HardwarePathAgreesWhenMappable) {
  const Conformance& c = GetParam();
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  auto config = CompileRegexConfig(c.pattern, device);
  if (!config.ok()) {
    GTEST_SKIP() << "not hardware-mappable: "
                 << config.status().ToString();
  }
  TokenNfaMatcher reference(config->nfa);
  EXPECT_EQ(reference.Find(c.input).matched, c.matched)
      << c.pattern << " on '" << c.input << "'";

  ProcessingUnit pu;
  auto program = CompiledPuProgram::Compile(config->vector, device);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  pu.Configure(*program);
  EXPECT_EQ(pu.ProcessString(c.input) != 0, c.matched)
      << c.pattern << " on '" << c.input << "'";
}

TEST_P(ConformanceTest, AllCompiledKernelsAgreeWhenMappable) {
  // Every compiled kernel (auto selection, forced lazy-DFA, forced NFA
  // loop) must return the same 16-bit match index on the whole corpus.
  const Conformance& c = GetParam();
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  auto config = CompileRegexConfig(c.pattern, device);
  if (!config.ok()) {
    GTEST_SKIP() << "not hardware-mappable: "
                 << config.status().ToString();
  }
  uint16_t reference = 0;
  bool first = true;
  for (PuKernelOptions::Force force :
       {PuKernelOptions::Force::kAuto, PuKernelOptions::Force::kLazyDfa,
        PuKernelOptions::Force::kNfaLoop}) {
    PuKernelOptions kopts;
    kopts.force = force;
    auto program = CompiledPuProgram::Compile(config->vector, device, kopts);
    ASSERT_TRUE(program.ok()) << c.pattern;
    ProcessingUnit pu;
    pu.Configure(*program);
    const uint16_t index = pu.ProcessString(c.input);
    EXPECT_EQ(index != 0, c.matched)
        << c.pattern << " on '" << c.input << "' kernel "
        << PuKernelName((*program)->kernel());
    if (first) {
      reference = index;
      first = false;
    } else {
      EXPECT_EQ(index, reference)
          << c.pattern << " on '" << c.input << "' kernel "
          << PuKernelName((*program)->kernel());
    }
  }
}

TEST_P(ConformanceTest, SimdBackendAgreesWhenMappable) {
  // The SIMD host backend (bit-parallel / prefiltered DFA / internal
  // scalar fallback) must return the scalar backend's exact 16-bit match
  // index — both with the host's widest vector path and with the
  // primitives capped to their scalar fallbacks.
  const Conformance& c = GetParam();
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  auto config = CompileRegexConfig(c.pattern, device);
  if (!config.ok()) {
    GTEST_SKIP() << "not hardware-mappable: "
                 << config.status().ToString();
  }
  auto program = CompiledPuProgram::Compile(config->vector, device);
  ASSERT_TRUE(program.ok()) << c.pattern;

  const BackendRegistry& registry = BackendRegistry::Global();
  auto scalar = registry.Get(BackendId::kCpuScalar).NewExecution(*program);
  const uint16_t reference = scalar->Match(c.input);
  EXPECT_EQ(reference != 0, c.matched)
      << c.pattern << " on '" << c.input << "'";

  auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(*program);
  EXPECT_EQ(simd->Match(c.input), reference)
      << c.pattern << " on '" << c.input << "' kernel "
      << simd->kernel_name();

  setenv("DOPPIO_SIMD_LEVEL", "scalar", 1);
  auto capped = registry.Get(BackendId::kCpuSimd).NewExecution(*program);
  EXPECT_EQ(capped->Match(c.input), reference)
      << c.pattern << " on '" << c.input << "' (scalar-capped)";
  unsetenv("DOPPIO_SIMD_LEVEL");
}

/// Shared HALs for the pool sweep (one construction per pool size, reused
/// across the whole corpus; the conformance geometry maps more patterns
/// than the paper's deployment default).
Hal* PoolHal(int num_devices) {
  auto make = [](int n) {
    Hal::Options options;
    options.shared_memory_bytes = 128 * kSharedPageBytes;
    options.functional_threads = 1;
    options.num_devices = n;
    options.device.max_chars = 64;
    options.device.max_states = 32;
    return new Hal(options);  // lives for the whole test binary
  };
  static Hal* one = make(1);
  static Hal* two = make(2);
  static Hal* four = make(4);
  switch (num_devices) {
    case 1:
      return one;
    case 2:
      return two;
    default:
      return four;
  }
}

TEST_P(ConformanceTest, DevicePoolShardingAgreesWhenMappable) {
  // The whole dialect corpus through 2- and 4-device pools: sharding a
  // BAT across devices must preserve the per-row 16-bit match index
  // exactly — byte-identical to the single-device partitioned run, with
  // the case rows deliberately spread across slice boundaries.
  const Conformance& c = GetParam();
  DeviceConfig probe_device;
  probe_device.max_chars = 64;
  probe_device.max_states = 32;
  auto probe = CompileRegexConfig(c.pattern, probe_device);
  if (!probe.ok()) {
    GTEST_SKIP() << "not hardware-mappable: " << probe.status().ToString();
  }

  constexpr int kRows = 63;  // odd, so slices straddle the case rows
  auto fill = [&](Hal* hal, Bat* input) {
    for (int i = 0; i < kRows; ++i) {
      if (i % 3 == 0) {
        ASSERT_TRUE(input->AppendString(c.input).ok());
      } else if (i % 3 == 1) {
        ASSERT_TRUE(input->AppendString("filler row, no verdict").ok());
      } else {
        ASSERT_TRUE(input->AppendString("").ok());
      }
    }
    (void)hal;
  };

  Hal* single = PoolHal(1);
  Bat reference_input(ValueType::kString, single->bat_allocator());
  fill(single, &reference_input);
  auto config_one = single->CompileConfig(c.pattern);
  ASSERT_TRUE(config_one.ok()) << c.pattern;
  auto reference =
      RegexpFpgaPartitioned(single, reference_input, *config_one);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int devices : {2, 4}) {
    Hal* hal = PoolHal(devices);
    Bat input(ValueType::kString, hal->bat_allocator());
    fill(hal, &input);
    auto config = hal->CompileConfig(c.pattern);
    ASSERT_TRUE(config.ok()) << c.pattern;
    auto out = RegexpFpgaPartitioned(hal, input, *config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(std::memcmp(reference->result->tail_data(),
                          out->result->tail_data(),
                          static_cast<size_t>(kRows) * 2),
              0)
        << c.pattern << " on '" << c.input << "' with " << devices
        << " devices";
    for (int64_t i = 0; i < kRows; i += 3) {
      EXPECT_EQ(out->result->GetInt16(i) != 0, c.matched)
          << c.pattern << " on '" << c.input << "' row " << i << " with "
          << devices << " devices";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dialect, ConformanceTest,
                         ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace doppio
