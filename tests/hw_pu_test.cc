#include <gtest/gtest.h>

#include "common/random.h"
#include "hw/config_compiler.h"
#include "hw/processing_unit.h"
#include "regex/dfa_matcher.h"
#include "regex/token_extractor.h"
#include "regex/token_nfa.h"

namespace doppio {
namespace {

DeviceConfig BigDevice() {
  DeviceConfig d;
  d.max_chars = 64;
  d.max_states = 32;
  return d;
}

Result<ProcessingUnit> MakePu(const std::string& pattern,
                              const CompileOptions& opts = {}) {
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          CompileRegexConfig(pattern, BigDevice(), opts));
  ProcessingUnit pu;
  DOPPIO_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledPuProgram> program,
      CompiledPuProgram::Compile(config.vector, BigDevice()));
  pu.Configure(std::move(program));
  return pu;
}

TEST(ProcessingUnitTest, MatchIndexConvention) {
  auto pu = MakePu("abc");
  ASSERT_TRUE(pu.ok());
  // Nonzero = 1-based position of the match's last character.
  EXPECT_EQ(pu->ProcessString("xxabcxx"), 5);
  EXPECT_EQ(pu->ProcessString("abc"), 3);
  EXPECT_EQ(pu->ProcessString("no match"), 0);
  EXPECT_EQ(pu->ProcessString(""), 0);
}

TEST(ProcessingUnitTest, ReconfigurableAtRuntime) {
  // The same PU instance evaluates different expressions without any
  // "re-synthesis" — the paper's core property.
  DeviceConfig device = BigDevice();
  ProcessingUnit pu;

  auto c1 = CompileRegexConfig("abc", device);
  ASSERT_TRUE(c1.ok());
  auto p1 = CompiledPuProgram::Compile(c1->vector, device);
  ASSERT_TRUE(p1.ok());
  pu.Configure(*p1);
  EXPECT_NE(pu.ProcessString("zzabczz"), 0);
  EXPECT_EQ(pu.ProcessString("zzxyzzz"), 0);

  auto c2 = CompileRegexConfig("xyz", device);
  ASSERT_TRUE(c2.ok());
  auto p2 = CompiledPuProgram::Compile(c2->vector, device);
  ASSERT_TRUE(p2.ok());
  pu.Configure(*p2);
  EXPECT_EQ(pu.ProcessString("zzabczz"), 0);
  EXPECT_NE(pu.ProcessString("zzxyzzz"), 0);
}

TEST(ProcessingUnitTest, RejectsOverCapacityConfig) {
  DeviceConfig small;
  small.max_chars = 4;
  auto config = CompileRegexConfig("toolong", BigDevice());
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(CompiledPuProgram::Compile(config->vector, small)
                  .status()
                  .IsCapacityExceeded());
}

TEST(ProcessingUnitTest, CyclesEqualBytesConsumed) {
  // One byte per PU clock cycle, independent of pattern complexity
  // (paper §5: "consumes the input at constant rate regardless of pattern
  // complexity or length").
  auto simple = MakePu("ab");
  auto complex = MakePu(R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(simple.ok());
  ASSERT_TRUE(complex.ok());
  std::string input = "John|Smith|44 Koblenzer Strasse|60327|Frankfurt";
  simple->ProcessString(input);
  complex->ProcessString(input);
  EXPECT_EQ(simple->cycles(), static_cast<int64_t>(input.size()));
  EXPECT_EQ(complex->cycles(), static_cast<int64_t>(input.size()));
}

TEST(ProcessingUnitTest, StartStringResetsState) {
  auto pu = MakePu("ab.*cd");
  ASSERT_TRUE(pu.ok());
  EXPECT_NE(pu->ProcessString("ab cd"), 0);
  // A fresh string must not inherit the latched state from the previous
  // one: "cd" alone is not a match.
  EXPECT_EQ(pu->ProcessString("cd"), 0);
}

TEST(ProcessingUnitTest, SaturatesAt16Bits) {
  auto pu = MakePu("needle");
  ASSERT_TRUE(pu.ok());
  std::string input(100'000, 'x');
  input += "needle";
  EXPECT_EQ(pu->ProcessString(input), 65535);
}

TEST(ProcessingUnitTest, MatchesTokenNfaReference) {
  // The cycle-level PU and the software token-NFA reference implement the
  // same semantics.
  const char* patterns[] = {
      "Strasse",
      R"((Strasse|Str\.).*(8[0-9]{4}))",
      "[0-9]+(USD|EUR|GBP)",
      R"([A-Za-z]{3}\:[0-9]{4})",
      "(ab|zz)cd",
      "ab.+cd",
  };
  Rng rng(99);
  const std::string alphabet = "abcdxzSUD019|. ";
  for (const char* pattern : patterns) {
    auto pu = MakePu(pattern);
    ASSERT_TRUE(pu.ok()) << pattern;
    auto nfa = ExtractTokenNfa(pattern);
    ASSERT_TRUE(nfa.ok());
    TokenNfaMatcher reference(*nfa);
    for (int i = 0; i < 200; ++i) {
      std::string input =
          rng.FromAlphabet(alphabet, 1 + rng.NextBounded(40));
      MatchResult ref = reference.Find(input);
      uint16_t hw = pu->ProcessString(input);
      EXPECT_EQ(hw != 0, ref.matched) << pattern << " on " << input;
      if (ref.matched) {
        EXPECT_EQ(static_cast<int32_t>(hw), ref.end)
            << pattern << " on " << input;
      }
    }
  }
}

TEST(ProcessingUnitTest, MatchesDfaOnRandomInputs) {
  Rng rng(7);
  const char* pattern = R"((Strasse|Str\.).*(8[0-9]{4}))";
  auto pu = MakePu(pattern);
  ASSERT_TRUE(pu.ok());
  auto dfa = DfaMatcher::Compile(pattern);
  ASSERT_TRUE(dfa.ok());
  const std::string alphabet = "Strase.8190|x ";
  for (int i = 0; i < 500; ++i) {
    std::string input = rng.FromAlphabet(alphabet, 1 + rng.NextBounded(64));
    MatchResult sw = (*dfa)->Find(input);
    uint16_t hw = pu->ProcessString(input);
    EXPECT_EQ(hw != 0, sw.matched) << input;
    if (sw.matched) {
      EXPECT_EQ(static_cast<int32_t>(hw), sw.end) << input;
    }
  }
}

TEST(ProcessingUnitTest, CaseInsensitiveCollation) {
  CompileOptions ci;
  ci.case_insensitive = true;
  auto pu = MakePu("strasse", ci);
  ASSERT_TRUE(pu.ok());
  EXPECT_NE(pu->ProcessString("KOBLENZER STRASSE"), 0);
  EXPECT_NE(pu->ProcessString("Koblenzer StRaSsE"), 0);
  EXPECT_EQ(pu->ProcessString("Koblenzer Gasse"), 0);
}

}  // namespace
}  // namespace doppio
