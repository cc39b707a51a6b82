// The SIMD host backend: the FindByteSet primitives across every
// implementation level, the bit-parallel Shift-And engine and the
// start-byte-prefiltered lazy DFA against the scalar kernels (including
// the 16-bit saturation edge), the backend registry's choice logic, and
// the DOPPIO_FORCE_BACKEND / DOPPIO_SIMD_LEVEL environment overrides.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/random.h"
#include "db/hudf.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/pu_kernel.h"
#include "regex/bitparallel.h"
#include "regex/simd_scan.h"

namespace doppio {
namespace {

/// Scoped environment override restoring the prior value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

std::shared_ptr<const CompiledPuProgram> CompileProgram(
    const std::string& pattern,
    PuKernelOptions::Force force = PuKernelOptions::Force::kAuto) {
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  auto config = CompileRegexConfig(pattern, device);
  EXPECT_TRUE(config.ok()) << pattern;
  PuKernelOptions options;
  options.force = force;
  auto program = CompiledPuProgram::Compile(config->vector, device, options);
  EXPECT_TRUE(program.ok()) << pattern;
  return *program;
}

TEST(SimdScanTest, LevelsAgreeOnRandomHaystacks) {
  Rng rng(42);
  const std::string alphabet = "abcdefgh01234567 ";
  for (int iter = 0; iter < 200; ++iter) {
    const std::string hay = rng.FromAlphabet(
        alphabet, rng.NextBounded(257));  // 0..256: covers every tail size
    uint8_t bytes[simd::kMaxScanBytes];
    const int n = 1 + static_cast<int>(rng.NextBounded(simd::kMaxScanBytes));
    for (int i = 0; i < n; ++i) {
      bytes[i] = static_cast<uint8_t>(
          alphabet[rng.NextBounded(alphabet.size())]);
    }
    for (size_t from = 0; from <= hay.size(); from += 1 + from / 4) {
      const size_t expect = simd::FindByteSetAtLevel(
          hay, from, bytes, n, simd::SimdLevel::kScalar);
      for (simd::SimdLevel level :
           {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2}) {
        if (level > simd::DetectedSimdLevel()) continue;
        EXPECT_EQ(simd::FindByteSetAtLevel(hay, from, bytes, n, level),
                  expect)
            << "level " << simd::SimdLevelName(level) << " from " << from;
      }
    }
  }
}

TEST(SimdScanTest, PairLevelsAgreeOnRandomHaystacks) {
  Rng rng(43);
  const std::string alphabet = "abcdefgh01234567 ";
  for (int iter = 0; iter < 300; ++iter) {
    // 0..96 bytes: every vector/tail split at both widths, with partners
    // up to 20 bytes away (some past the end).
    const std::string hay = rng.FromAlphabet(alphabet, rng.NextBounded(97));
    simd::ByteSet sets[2];
    for (simd::ByteSet& set : sets) {
      set.count = 1 + static_cast<int>(rng.NextBounded(simd::kMaxScanBytes));
      for (int i = 0; i < set.count; ++i) {
        set.bytes[i] = static_cast<uint8_t>(
            alphabet[rng.NextBounded(alphabet.size())]);
      }
    }
    const size_t distance = rng.NextBounded(21);
    for (size_t from = 0; from <= hay.size(); from += 1 + from / 4) {
      const size_t expect = simd::FindBytePairAtLevel(
          hay, from, sets[0], sets[1], distance, simd::SimdLevel::kScalar);
      if (expect != std::string::npos) {
        ASSERT_LT(expect + distance, hay.size());
      }
      for (simd::SimdLevel level :
           {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2}) {
        if (level > simd::DetectedSimdLevel()) continue;
        EXPECT_EQ(simd::FindBytePairAtLevel(hay, from, sets[0], sets[1],
                                            distance, level),
                  expect)
            << "level " << simd::SimdLevelName(level) << " from " << from
            << " distance " << distance;
      }
    }
  }
}

TEST(SimdScanTest, EnvVarCapsActiveLevel) {
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", "scalar");
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
  }
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", "sse2");
    EXPECT_LE(simd::ActiveSimdLevel(), simd::SimdLevel::kSse2);
  }
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", nullptr);
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::DetectedSimdLevel());
  }
}

TEST(BitParallelTest, CompilesChainShapesOnly) {
  // Chain of two stages glued by '.*': compiles, anchored on rare bytes.
  auto chain = CompileProgram("abc.*x[0-9]z");
  auto bp = BitParallelProgram::Compile(chain->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_stages(), 2);
  EXPECT_EQ(bp->num_anchored_stages(), 2);

  // Alternation fans out the state graph: no chain shape.
  auto alt = CompileProgram("(abc|xyz)");
  EXPECT_FALSE(BitParallelProgram::Compile(alt->nfa()).has_value());
}

TEST(BitParallelTest, FiltersOnTwoRarePositionsWhenItCan) {
  // A literal filters on its first and last byte.
  auto literal = CompileProgram("57 Berner Gasse");
  auto bp = BitParallelProgram::Compile(literal->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_pair_filtered_stages(), 1);
  EXPECT_EQ(bp->Find("x|57 Berner Gasse|1"), 17);
  EXPECT_EQ(bp->Find("57 Berner Gass"), 0);

  // One rare position: a single-byte anchor.
  auto one = CompileProgram("8[0-9][0-9][0-9][0-9]");
  bp = BitParallelProgram::Compile(one->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_anchored_stages(), 1);
  EXPECT_EQ(bp->num_pair_filtered_stages(), 0);
  EXPECT_EQ(bp->Find("a 7 80327"), 9);
}

TEST(BitParallelTest, WideClassStageRunsUnanchored) {
  // Every position matches >4 bytes: no anchor, pure Shift-And loop.
  auto program = CompileProgram("[a-z][a-z][a-z]");
  auto bp = BitParallelProgram::Compile(program->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_anchored_stages(), 0);
  EXPECT_EQ(bp->Find("A1 cat"), 6);
  EXPECT_EQ(bp->Find("A1 ca"), 0);
}

TEST(SimdBackendTest, AgreesWithScalarOnPatternSweep) {
  const char* patterns[] = {
      "Strasse", "abc.*def", "8[0-9][0-9][0-9][0-9]",
      "[0-9]+(USD|EUR|GBP)", "(abc|xyz)", "a.c", "x.*x",
      "(Strasse|Str\\.).*(8[0-9][0-9][0-9][0-9])",
  };
  Rng rng(7);
  const std::string alphabet = "abcdefxyz 0123456789SUDERGBP.st";
  const BackendRegistry& registry = BackendRegistry::Global();
  for (const char* pattern : patterns) {
    auto program = CompileProgram(pattern);
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    // And the SIMD backend with its vector paths disabled: the scalar
    // fallbacks inside the primitives must not change a single result.
    ScopedEnv cap("DOPPIO_SIMD_LEVEL", "scalar");
    auto simd_capped =
        registry.Get(BackendId::kCpuSimd).NewExecution(program);
    for (int i = 0; i < 400; ++i) {
      const std::string input =
          rng.FromAlphabet(alphabet, rng.NextBounded(64));
      const uint16_t expect = scalar->Match(input);
      ASSERT_EQ(simd->Match(input), expect)
          << pattern << " on '" << input << "'";
      ASSERT_EQ(simd_capped->Match(input), expect)
          << pattern << " on '" << input << "' (scalar-capped)";
    }
  }
}

TEST(SimdBackendTest, SaturatesMatchIndexAt65535) {
  const BackendRegistry& registry = BackendRegistry::Global();
  // Chain-shaped program (bit-parallel path) and a fan-out program whose
  // escape set is small (prefiltered lazy-DFA path).
  for (const char* pattern : {"qzk", "(qzk|qzm)"}) {
    auto program = CompileProgram(pattern);
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    for (size_t end : {size_t{65534}, size_t{65535}, size_t{65536},
                       size_t{70000}}) {
      std::string input(end - 3, 'x');
      input += "qzk";
      input.resize(end + 50, 'y');  // tail beyond the match
      const uint16_t expect_scalar = scalar->Match(input);
      const uint16_t expect =
          end <= 65535 ? static_cast<uint16_t>(end) : uint16_t{65535};
      EXPECT_EQ(expect_scalar, expect) << pattern << " end " << end;
      EXPECT_EQ(simd->Match(input), expect_scalar)
          << pattern << " end " << end;
    }
  }
}

TEST(KernelBackendTest, ForcedBackendParsesEnvValues) {
  struct {
    const char* value;
    std::optional<BackendId> expect;
  } cases[] = {
      {"scalar", BackendId::kCpuScalar},
      {"cpu-scalar", BackendId::kCpuScalar},
      {"simd", BackendId::kCpuSimd},
      {"cpu-simd", BackendId::kCpuSimd},
      {"fpga", BackendId::kFpgaSim},
      {"fpga-sim", BackendId::kFpgaSim},
      {"bogus", std::nullopt},
      {nullptr, std::nullopt},
  };
  for (const auto& c : cases) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", c.value);
    EXPECT_EQ(ForcedBackend(), c.expect)
        << (c.value == nullptr ? "<unset>" : c.value);
  }
}

TEST(KernelBackendTest, ChoosesSimdWhenSupportedScalarOtherwise) {
  ScopedEnv env("DOPPIO_FORCE_BACKEND", nullptr);
  const BackendRegistry& registry = BackendRegistry::Global();

  // Chain-shaped literal: bit-parallel eligible.
  auto literal = CompileProgram("Strasse");
  EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuSimd);

  // Fan-out with a single escape byte: prefiltered lazy DFA.
  auto prefilter = CompileProgram("(Strasse|Str\\.)");
  EXPECT_EQ(prefilter->kernel(), PuKernelKind::kLazyDfa);
  EXPECT_EQ(prefilter->start_bytes().size(), 1u);
  EXPECT_EQ(registry.ChooseHost(*prefilter).id(), BackendId::kCpuSimd);

  // Broad-start fan-out: escape set far beyond the scan width.
  auto broad = CompileProgram("([a-z]a|[0-9]b)");
  EXPECT_GT(broad->start_bytes().size(),
            static_cast<size_t>(simd::kMaxScanBytes));
  EXPECT_EQ(registry.ChooseHost(*broad).id(), BackendId::kCpuScalar);

  // Forced NFA-loop programs stay on the scalar interpreter.
  auto forced_loop =
      CompileProgram("Strasse", PuKernelOptions::Force::kNfaLoop);
  EXPECT_EQ(registry.ChooseHost(*forced_loop).id(), BackendId::kCpuScalar);
}

TEST(KernelBackendTest, ForcedBackendWinsAndNeverFails) {
  const BackendRegistry& registry = BackendRegistry::Global();
  auto broad = CompileProgram("([a-z]a|[0-9]b)");
  auto literal = CompileProgram("Strasse");
  {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "simd");
    EXPECT_EQ(registry.ChooseHost(*broad).id(), BackendId::kCpuSimd);
    // Unsupported program under a forced SIMD backend: internal scalar
    // fallback, same results.
    auto exec = registry.Get(BackendId::kCpuSimd).NewExecution(broad);
    auto scalar = registry.Get(BackendId::kCpuScalar).NewExecution(broad);
    for (const char* s : {"", "za", "7b", "zb 7a", "qa0b"}) {
      EXPECT_EQ(exec->Match(s), scalar->Match(s)) << "'" << s << "'";
    }
  }
  {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "scalar");
    EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuScalar);
  }
  {
    // Forced fpga pins routing, not the host degrade path.
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "fpga");
    EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuSimd);
  }
}

TEST(KernelBackendTest, HostSliceMatchesAcrossForcedBackends) {
  Rng rng(11);
  Bat input(ValueType::kString);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        input
            .AppendString(rng.FromAlphabet("abcStrse 0123456789.",
                                           rng.NextBounded(48)))
            .ok());
  }
  DeviceConfig device;
  const std::string pattern = "(Strasse|Str\\.).*(8[0-9][0-9][0-9][0-9])";

  std::vector<int16_t> reference;
  for (const char* backend : {"scalar", "simd"}) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", backend);
    auto result = RegexpHost(device, input, pattern);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.strategy,
              std::string("host-cpu-") + backend);
    const int16_t* values =
        reinterpret_cast<const int16_t*>(result->result->tail_data());
    if (reference.empty()) {
      reference.assign(values, values + input.count());
    } else {
      for (int64_t i = 0; i < input.count(); ++i) {
        ASSERT_EQ(values[i], reference[i])
            << backend << " row " << i << " '" << input.GetString(i) << "'";
      }
    }
  }
}

}  // namespace
}  // namespace doppio
