// Compiled-kernel equivalence tests: the literal and lazy-DFA kernels must
// return bit-identical 16-bit match indexes to the bit-parallel NFA
// interpreter for every pattern and input — including the 65535 saturation
// of the hardware result lane and the bounded-cache fallback path.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/random.h"
#include "hw/config_compiler.h"
#include "hw/processing_unit.h"
#include "hw/pu_kernel.h"

namespace doppio {
namespace {

DeviceConfig BigDevice() {
  DeviceConfig d;
  d.max_chars = 64;
  d.max_states = 32;
  return d;
}

Result<std::shared_ptr<const CompiledPuProgram>> CompileKernel(
    const std::string& pattern, const PuKernelOptions& kernel_opts = {},
    const CompileOptions& compile_opts = {}) {
  DOPPIO_ASSIGN_OR_RETURN(
      RegexConfig config,
      CompileRegexConfig(pattern, BigDevice(), compile_opts));
  return CompiledPuProgram::Compile(config.vector, BigDevice(), kernel_opts);
}

ProcessingUnit MakePu(std::shared_ptr<const CompiledPuProgram> program) {
  ProcessingUnit pu;
  pu.Configure(std::move(program));
  return pu;
}

// Same grammar as property_test.cc: alternations of literal/class tokens
// glued by adjacency or '.*', with optional '+'.
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

TEST(PuKernelTest, SelectsLiteralForSubstringShapes) {
  for (const char* pattern : {"abc", "Strasse", "abc.*def", "a.*b.*c"}) {
    auto program = CompileKernel(pattern);
    ASSERT_TRUE(program.ok()) << pattern;
    EXPECT_EQ((*program)->kernel(), PuKernelKind::kLiteral) << pattern;
  }
}

TEST(PuKernelTest, SelectsLazyDfaForGeneralShapes) {
  for (const char* pattern :
       {"[0-9]+", "(abc|xyz)", "(Strasse|Str\\.).*(8[0-9])",
        "[a-c][0-9]"}) {
    auto program = CompileKernel(pattern);
    ASSERT_TRUE(program.ok()) << pattern;
    EXPECT_EQ((*program)->kernel(), PuKernelKind::kLazyDfa) << pattern;
  }
}

TEST(PuKernelTest, ForceOverridesSelection) {
  PuKernelOptions force_nfa;
  force_nfa.force = PuKernelOptions::Force::kNfaLoop;
  auto program = CompileKernel("abc", force_nfa);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ((*program)->kernel(), PuKernelKind::kNfaLoop);

  PuKernelOptions force_dfa;
  force_dfa.force = PuKernelOptions::Force::kLazyDfa;
  program = CompileKernel("abc", force_dfa);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ((*program)->kernel(), PuKernelKind::kLazyDfa);
}

TEST(PuKernelTest, CaseInsensitiveLiteralKernel) {
  CompileOptions copts;
  copts.case_insensitive = true;
  auto program = CompileKernel("abc", {}, copts);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ((*program)->kernel(), PuKernelKind::kLiteral);
  ProcessingUnit pu = MakePu(*program);
  EXPECT_EQ(pu.ProcessString("xxABCxx"), 5);
  EXPECT_EQ(pu.ProcessString("xxaBcxx"), 5);
  EXPECT_EQ(pu.ProcessString("xxabxcx"), 0);
}

// The core property: every kernel produces the same match index as the
// reference interpreter on random patterns x random strings.
TEST(PuKernelTest, AllKernelsAgreeOnRandomPatterns) {
  Rng rng(77);
  const std::string alphabet = "abcxyz019 ";
  PuKernelOptions force_nfa;
  force_nfa.force = PuKernelOptions::Force::kNfaLoop;
  PuKernelOptions force_dfa;
  force_dfa.force = PuKernelOptions::Force::kLazyDfa;

  int literal_selected = 0;
  int checked = 0;
  for (int p = 0; p < 80; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto auto_program = CompileKernel(pattern);
    auto nfa_program = CompileKernel(pattern, force_nfa);
    auto dfa_program = CompileKernel(pattern, force_dfa);
    ASSERT_TRUE(auto_program.ok()) << pattern;
    ASSERT_TRUE(nfa_program.ok()) << pattern;
    ASSERT_TRUE(dfa_program.ok()) << pattern;
    if ((*auto_program)->kernel() == PuKernelKind::kLiteral) {
      ++literal_selected;
    }
    ProcessingUnit auto_pu = MakePu(*auto_program);
    ProcessingUnit nfa_pu = MakePu(*nfa_program);
    ProcessingUnit dfa_pu = MakePu(*dfa_program);
    for (int i = 0; i < 40; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(48));
      const uint16_t reference = nfa_pu.ProcessString(input);
      ASSERT_EQ(auto_pu.ProcessString(input), reference)
          << pattern << " on '" << input << "'";
      ASSERT_EQ(dfa_pu.ProcessString(input), reference)
          << pattern << " on '" << input << "'";
      ++checked;
    }
  }
  EXPECT_GT(checked, 3000);
  // The grammar produces plenty of pure-literal shapes; make sure the
  // literal kernel actually participated in the sweep.
  EXPECT_GT(literal_selected, 5);
}

TEST(PuKernelTest, SaturatesAt65535AcrossKernels) {
  PuKernelOptions force_nfa;
  force_nfa.force = PuKernelOptions::Force::kNfaLoop;
  PuKernelOptions force_dfa;
  force_dfa.force = PuKernelOptions::Force::kLazyDfa;

  std::string input(70000, 'x');
  input += "abc";  // match latches past the 16-bit horizon
  for (const PuKernelOptions& kopts :
       {PuKernelOptions{}, force_nfa, force_dfa}) {
    auto program = CompileKernel("abc", kopts);
    ASSERT_TRUE(program.ok());
    ProcessingUnit pu = MakePu(*program);
    EXPECT_EQ(pu.ProcessString(input), 65535);
  }
}

TEST(PuKernelTest, TinyDfaCacheFallsBackToInterpreter) {
  // A one-entry cache overflows immediately on any pattern with more than
  // one reachable machine state; results must still match the reference.
  Rng rng(99);
  const std::string alphabet = "abcxyz019 ";
  PuKernelOptions tiny_dfa;
  tiny_dfa.force = PuKernelOptions::Force::kLazyDfa;
  tiny_dfa.max_dfa_states = 1;
  PuKernelOptions force_nfa;
  force_nfa.force = PuKernelOptions::Force::kNfaLoop;

  for (int p = 0; p < 20; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto tiny_program = CompileKernel(pattern, tiny_dfa);
    auto nfa_program = CompileKernel(pattern, force_nfa);
    ASSERT_TRUE(tiny_program.ok()) << pattern;
    ASSERT_TRUE(nfa_program.ok()) << pattern;
    ProcessingUnit tiny_pu = MakePu(*tiny_program);
    ProcessingUnit nfa_pu = MakePu(*nfa_program);
    for (int i = 0; i < 30; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(48));
      ASSERT_EQ(tiny_pu.ProcessString(input), nfa_pu.ProcessString(input))
          << pattern << " on '" << input << "'";
    }
  }
}

TEST(PuKernelTest, SharedProgramAcrossPus) {
  auto program = CompileKernel("(abc|xy).*[0-9]");
  ASSERT_TRUE(program.ok());
  ProcessingUnit a = MakePu(*program);
  ProcessingUnit b = MakePu(*program);
  // Both reference the same immutable compiled program...
  EXPECT_EQ(a.compiled_program(), b.compiled_program());
  // ...and carry fully independent dynamic state.
  EXPECT_EQ(a.ProcessString("zzabc7"), 6);
  EXPECT_EQ(b.ProcessString("nothing"), 0);
  EXPECT_EQ(a.ProcessString("xy9"), 3);
  EXPECT_EQ(b.ProcessString("xy9"), 3);
}

TEST(PuKernelTest, CyclesAccountEveryByteExactlyOnce) {
  // The simulated PU streams the whole string at one byte per cycle no
  // matter when the match latches — including a match on the final byte,
  // which must not double-advance the counter.
  for (PuKernelOptions::Force force :
       {PuKernelOptions::Force::kAuto, PuKernelOptions::Force::kLazyDfa,
        PuKernelOptions::Force::kNfaLoop}) {
    PuKernelOptions kopts;
    kopts.force = force;
    auto program = CompileKernel("abc", kopts);
    ASSERT_TRUE(program.ok());
    ProcessingUnit pu = MakePu(*program);
    EXPECT_EQ(pu.ProcessString("xxabc"), 5);  // match on final byte
    EXPECT_EQ(pu.cycles(), 5);
    EXPECT_EQ(pu.ProcessString("abcxx"), 3);  // match mid-string
    EXPECT_EQ(pu.cycles(), 10);
    EXPECT_EQ(pu.ProcessString("zzzzz"), 0);  // no match
    EXPECT_EQ(pu.cycles(), 15);
  }
}

TEST(PuKernelTest, ProcessStringMatchesConsumeByteLoop) {
  Rng rng(13);
  const std::string alphabet = "abcxyz019 ";
  for (int p = 0; p < 30; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto program = CompileKernel(pattern);
    ASSERT_TRUE(program.ok()) << pattern;
    ProcessingUnit fast = MakePu(*program);
    ProcessingUnit slow = MakePu(*program);
    for (int i = 0; i < 20; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(40));
      slow.StartString();
      for (char c : input) slow.ConsumeByte(static_cast<uint8_t>(c));
      ASSERT_EQ(fast.ProcessString(input), slow.MatchIndex())
          << pattern << " on '" << input << "'";
      ASSERT_EQ(fast.cycles(), slow.cycles()) << pattern;
    }
  }
}

TEST(PuKernelTest, MatchIndexSaturatesAtResultLaneBoundary) {
  // The hardware result lane is 16 bits wide: a match whose last byte sits
  // at 1-based position 65534 or 65535 reports that position exactly, and
  // anything beyond reports the saturated 65535. All three compiled
  // kernels and the cycle-level interpreter must agree at the boundary.
  PuKernelOptions force_dfa;
  force_dfa.force = PuKernelOptions::Force::kLazyDfa;
  PuKernelOptions force_nfa;
  force_nfa.force = PuKernelOptions::Force::kNfaLoop;

  auto literal = CompileKernel("abc");
  auto dfa = CompileKernel("abc", force_dfa);
  auto nfa = CompileKernel("abc", force_nfa);
  ASSERT_TRUE(literal.ok());
  ASSERT_TRUE(dfa.ok());
  ASSERT_TRUE(nfa.ok());
  ASSERT_EQ((*literal)->kernel(), PuKernelKind::kLiteral);
  ASSERT_EQ((*dfa)->kernel(), PuKernelKind::kLazyDfa);
  ASSERT_EQ((*nfa)->kernel(), PuKernelKind::kNfaLoop);

  for (int64_t end : {int64_t{65534}, int64_t{65535}, int64_t{65536}}) {
    std::string input(static_cast<size_t>(end - 3), 'x');
    input += "abc";  // first match ends exactly at byte `end` (1-based)
    const uint16_t expected =
        end > 65535 ? 65535 : static_cast<uint16_t>(end);

    for (const auto& program : {*literal, *dfa, *nfa}) {
      ProcessingUnit pu = MakePu(program);
      EXPECT_EQ(pu.ProcessString(input), expected)
          << PuKernelName(program->kernel()) << " at end " << end;
    }
    // Cycle-level simulation: one ConsumeByte per PU clock.
    ProcessingUnit pu = MakePu(*nfa);
    pu.StartString();
    for (char c : input) pu.ConsumeByte(static_cast<uint8_t>(c));
    EXPECT_EQ(pu.MatchIndex(), expected) << "interpreter at end " << end;
  }
}

TEST(PuKernelTest, AnchoredPatternsNeverReachKernelSelection) {
  // The hardware engine searches unanchored only; the extractor rejects
  // anchored compiles before any kernel is selected (they route to
  // software), so no kernel ever has to implement anchor semantics.
  CompileOptions copts;
  copts.anchor_start = true;
  EXPECT_FALSE(CompileKernel("abc", {}, copts).ok());
  copts.anchor_start = false;
  copts.anchor_end = true;
  EXPECT_FALSE(CompileKernel("abc", {}, copts).ok());
}

}  // namespace
}  // namespace doppio
