// Robustness fuzzing: random and mutated inputs must produce clean Status
// errors, never crashes, hangs or invalid states. The last two tests are
// differential: the device's functional pass against independent oracles
// on random programs and corpora, and the host executions' block entry
// point (HostExecution::MatchRows) against per-row Match and the DFA on
// hand-built string heaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bat/bat.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "hw/config_compiler.h"
#include "hw/config_vector.h"
#include "hw/fpga_device.h"
#include "hw/kernel_backend.h"
#include "regex/bitparallel.h"
#include "regex/dfa_matcher.h"
#include "regex/like_translator.h"
#include "regex/pattern_parser.h"
#include "regex/simd_scan.h"
#include "regex/token_extractor.h"
#include "sql/parser.h"

namespace doppio {
namespace {

TEST(FuzzTest, RandomBytesIntoPatternParser) {
  Rng rng(42);
  int parsed_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    size_t len = rng.NextBounded(24);
    std::string input;
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    }
    auto ast = ParsePattern(input);
    if (ast.ok()) {
      ++parsed_ok;
      // Whatever parsed must compile and execute without issue.
      auto matcher = DfaMatcher::Compile(input);
      if (matcher.ok()) {
        (void)(*matcher)->Find("John|Smith|44 Koblenzer Strasse");
      }
    } else {
      EXPECT_TRUE(ast.status().IsParseError() ||
                  ast.status().IsCapacityExceeded())
          << input << " -> " << ast.status().ToString();
    }
  }
  EXPECT_GT(parsed_ok, 100);  // plenty of random strings are valid regexes
}

TEST(FuzzTest, RandomMetaHeavyPatterns) {
  Rng rng(7);
  const std::string meta = R"(()[]{}|*+?.\-^09azAZ)";
  for (int i = 0; i < 3000; ++i) {
    std::string input = rng.FromAlphabet(meta, rng.NextBounded(16));
    auto ast = ParsePattern(input);
    if (!ast.ok()) continue;
    // Round-trip: rendering a parsed AST must re-parse.
    std::string rendered = (*ast)->ToString();
    auto reparsed = ParsePattern(rendered);
    EXPECT_TRUE(reparsed.ok()) << input << " -> " << rendered;
  }
}

TEST(FuzzTest, RandomLikePatterns) {
  Rng rng(9);
  const std::string alphabet = "ab%_\\xy";
  for (int i = 0; i < 3000; ++i) {
    std::string pattern = rng.FromAlphabet(alphabet, rng.NextBounded(12));
    auto like = TranslateLike(pattern);
    if (!like.ok()) {
      EXPECT_TRUE(like.status().IsParseError());
      continue;
    }
    auto reparse = ParsePattern(like->regex);
    EXPECT_TRUE(reparse.ok()) << pattern << " -> " << like->regex;
  }
}

TEST(FuzzTest, RandomBytesIntoConfigDecoder) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> bytes(rng.NextBounded(256));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    auto config = ConfigVector::FromBytes(bytes);
    // Virtually all random blobs must be rejected; none may crash.
    if (config.ok()) {
      auto nfa = config->Decode();
      EXPECT_TRUE(nfa.ok());
    }
  }
}

TEST(FuzzTest, TruncatedValidConfigs) {
  auto nfa = ExtractTokenNfa(R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(nfa.ok());
  auto encoded = ConfigVector::Encode(*nfa);
  ASSERT_TRUE(encoded.ok());
  const auto& bytes = encoded->bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    auto result = ConfigVector::FromBytes(truncated);
    // Shorter prefixes must be rejected (padding-only truncation at the
    // tail may still decode — that is fine).
    (void)result;
  }
}

TEST(FuzzTest, RandomBytesIntoSqlParser) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.NextBounded(48);
    std::string input;
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    }
    auto stmt = sql::ParseSelect(input);
    if (!stmt.ok()) {
      EXPECT_TRUE(stmt.status().IsParseError()) << input;
    }
  }
}

TEST(FuzzTest, MutatedValidSql) {
  const std::string base =
      "SELECT count(*) FROM address_table WHERE address_string LIKE "
      "'%Strasse%' AND id < 100;";
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBounded(96) + 32);
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(rng.NextBounded(96) + 32));
          break;
      }
      if (mutated.empty()) break;
    }
    (void)sql::ParseSelect(mutated);  // must not crash
  }
}

TEST(FuzzTest, ExtractorNeverProducesInvalidNfa) {
  Rng rng(17);
  const std::string alphabet = "ab(|)*+?.[]-09{}";
  for (int i = 0; i < 3000; ++i) {
    std::string pattern = rng.FromAlphabet(alphabet, rng.NextBounded(14));
    auto ast = ParsePattern(pattern);
    if (!ast.ok()) continue;
    auto nfa = ExtractTokenNfa(**ast);
    if (nfa.ok()) {
      EXPECT_TRUE(nfa->Validate().ok()) << pattern;
      // And the config round-trips.
      auto encoded = ConfigVector::Encode(*nfa);
      ASSERT_TRUE(encoded.ok()) << pattern;
      EXPECT_TRUE(encoded->Decode().ok()) << pattern;
    }
  }
}

// Random hardware-mappable patterns: literal and class tokens glued by
// adjacency or '.*' gaps, with alternations and class repetitions.
std::string RandomDevicePattern(Rng* rng) {
  auto token = [&] {
    switch (rng->NextBounded(5)) {
      case 0:
        return rng->FromAlphabet("abc", 1 + rng->NextBounded(3));
      case 1:
        return std::string("[a-c]");
      case 2:
        return std::string("[0-9]");
      case 3:
        return std::string("[0-9]+");
      default:
        return rng->FromAlphabet("xyz", 1 + rng->NextBounded(2));
    }
  };
  std::string pattern;
  const int segments = 1 + static_cast<int>(rng->NextBounded(3));
  for (int s = 0; s < segments; ++s) {
    if (s > 0 && rng->Bernoulli(0.5)) pattern += ".*";
    if (rng->Bernoulli(0.3)) {
      pattern += '(';
      pattern += token();
      pattern += '|';
      pattern += token();
      pattern += ')';
    } else {
      pattern += token();
    }
  }
  return pattern;
}

// Short random rows plus three rows of 65534, 65535 and 65536 bytes whose
// only matchable bytes are a random tail, so their first match ends right
// at the 16-bit index's saturation point.
std::unique_ptr<Bat> RandomCorpus(Rng* rng, int short_rows) {
  const std::string alphabet = "abcxyz019 ";
  std::vector<std::string> rows;
  for (int i = 0; i < short_rows; ++i) {
    rows.push_back(rng->FromAlphabet(alphabet, rng->NextBounded(40)));
  }
  for (size_t length : {65534u, 65535u, 65536u}) {
    std::string tail = rng->FromAlphabet(alphabet, 24);
    std::string row(length - tail.size(), '-');
    row += tail;
    rows.insert(rows.begin() + static_cast<long>(
                                   rng->NextBounded(rows.size() + 1)),
                std::move(row));
  }
  auto bat = std::make_unique<Bat>(ValueType::kString);
  for (const std::string& row : rows) {
    EXPECT_TRUE(bat->AppendString(row).ok());
  }
  return bat;
}

// A compiled program with its per-stream oracle: stream p of a set must
// equal member p compiled alone, which DfaMatcher gives independently.
struct DeviceCase {
  std::string name;
  RegexConfig config;
  std::vector<const DfaMatcher*> oracles;  // one per stream
};

// Expected result block (count x streams, row-major) of `c` over `input`:
// the first match's end, 1-based and saturated at 65535, or 0.
std::vector<uint16_t> OracleResults(const DeviceCase& c, const Bat& input) {
  const size_t streams = c.oracles.size();
  std::vector<uint16_t> expect(static_cast<size_t>(input.count()) * streams);
  for (int64_t i = 0; i < input.count(); ++i) {
    for (size_t p = 0; p < streams; ++p) {
      const MatchResult m = c.oracles[p]->Find(input.GetString(i));
      expect[static_cast<size_t>(i) * streams + p] =
          m.matched ? static_cast<uint16_t>(std::min<int32_t>(m.end, 65535))
                    : 0;
    }
  }
  return expect;
}

void ExpectSameResults(const std::vector<uint16_t>& got,
                       const std::vector<uint16_t>& expect,
                       const std::string& what) {
  ASSERT_EQ(got.size(), expect.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expect[i]) {
      ADD_FAILURE() << what << ": first mismatch at index " << i << " got "
                    << got[i] << " want " << expect[i];
      return;
    }
  }
}

// Runs `c` over `input` as one job on `fpga`, and as a host slice over the
// same JobParams; checks both against the oracle block.
void CheckDeviceJob(FpgaDevice* fpga, const Bat& input, const DeviceCase& c,
                    const std::vector<uint16_t>& expect,
                    const std::string& what, std::set<std::string>* kernels) {
  JobParams params;
  params.offsets = input.tail_data();
  params.heap = input.heap()->data();
  params.count = input.count();
  params.offset_width = 4;
  params.heap_bytes = input.heap()->size_bytes();
  params.program = c.config.program;
  params.streams = c.config.program->num_patterns();

  std::vector<uint16_t> device(expect.size(), 0xBEEF);
  params.result = reinterpret_cast<uint8_t*>(device.data());
  auto job = fpga->Submit(params);
  ASSERT_TRUE(job.ok()) << what << ": " << job.status().ToString();
  ASSERT_TRUE(fpga->WaitForJob(*job).ok()) << what;
  ExpectSameResults(device, expect, what + " device " + c.name);

  std::vector<uint16_t> host(expect.size(), 0xBEEF);
  params.result = reinterpret_cast<uint8_t*>(host.data());
  HostSliceInfo info;
  auto matches = RunHostSlice(params, &info);
  ASSERT_TRUE(matches.ok()) << what << ": " << matches.status().ToString();
  ExpectSameResults(host, expect, what + " host slice " + c.name);
  kernels->insert(info.kernel);
}

TEST(FuzzTest, FunctionalPassMatchesOraclesOnEveryBackend) {
  const char* env = std::getenv("DOPPIO_FORCE_BACKEND");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;

  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  Rng rng(31337);

  // Single-pattern programs, then 2-3 member sets drawn from them.
  std::vector<std::unique_ptr<DfaMatcher>> matchers;
  std::vector<DeviceCase> cases;
  while (cases.size() < 24) {
    const std::string pattern = RandomDevicePattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;
    auto dfa = DfaMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok()) << pattern;
    matchers.push_back(std::move(*dfa));
    cases.push_back(DeviceCase{pattern, std::move(*config),
                               {matchers.back().get()}});
  }
  const size_t singles = cases.size();
  for (int attempt = 0; attempt < 40 && cases.size() < singles + 8;
       ++attempt) {
    const size_t members = 2 + rng.NextBounded(2);
    std::vector<size_t> picks;
    while (picks.size() < members) {
      const size_t k = rng.NextBounded(singles);
      if (std::find(picks.begin(), picks.end(), k) == picks.end()) {
        picks.push_back(k);
      }
    }
    std::vector<const TokenNfa*> nfas;
    DeviceCase set;
    for (size_t k : picks) {
      nfas.push_back(&cases[k].config.nfa);
      set.name += (set.name.empty() ? "{" : ", ") + cases[k].name;
      set.oracles.push_back(cases[k].oracles[0]);
    }
    set.name += "}";
    auto config = CompileRegexSetConfig(nfas, device);
    if (!config.ok()) continue;  // merged program over capacity
    set.config = std::move(*config);
    cases.push_back(std::move(set));
  }
  ASSERT_GE(cases.size(), singles + 4);

  // The serial corpus runs every program; the sharded one (above the
  // parallel threshold) a few singles and a few sets.
  std::unique_ptr<Bat> small = RandomCorpus(&rng, 300);
  std::unique_ptr<Bat> large = RandomCorpus(
      &rng, static_cast<int>(RegexEngine::kParallelThreshold) + 500);
  std::vector<const DeviceCase*> sharded = {&cases[0], &cases[1],
                                            &cases[2], &cases[singles],
                                            &cases[singles + 1]};
  std::vector<std::vector<uint16_t>> small_expect;
  for (const DeviceCase& c : cases) {
    small_expect.push_back(OracleResults(c, *small));
  }
  std::vector<std::vector<uint16_t>> large_expect;
  for (const DeviceCase* c : sharded) {
    large_expect.push_back(OracleResults(*c, *large));
  }

  ThreadPool pool(3);
  for (const char* forced : {"", "scalar", "simd"}) {
    if (forced[0] == '\0') {
      unsetenv("DOPPIO_FORCE_BACKEND");
    } else {
      setenv("DOPPIO_FORCE_BACKEND", forced, 1);
    }
    const std::string what =
        std::string("backend ") + (forced[0] == '\0' ? "unforced" : forced);
    std::set<std::string> kernels;
    FpgaDevice serial(device);
    for (size_t i = 0; i < cases.size(); ++i) {
      CheckDeviceJob(&serial, *small, cases[i], small_expect[i],
                     what + " serial", &kernels);
    }
    FpgaDevice parallel(device, nullptr, &pool);
    for (size_t i = 0; i < sharded.size(); ++i) {
      CheckDeviceJob(&parallel, *large, *sharded[i], large_expect[i],
                     what + " sharded", &kernels);
    }
    if (forced[0] == '\0') {
      // The random programs must reach the accelerated host kernels, not
      // only their scalar fallbacks.
      EXPECT_TRUE(kernels.count("bit-parallel")) << what;
      EXPECT_TRUE(kernels.count("dfa+prefilter")) << what;
    } else if (std::string(forced) == "scalar") {
      EXPECT_FALSE(kernels.count("bit-parallel")) << what;
      EXPECT_FALSE(kernels.count("dfa+prefilter")) << what;
    }
  }

  if (saved.has_value()) {
    setenv("DOPPIO_FORCE_BACKEND", saved->c_str(), 1);
  } else {
    unsetenv("DOPPIO_FORCE_BACKEND");
  }
}

// Random chain-shaped patterns (the bit-parallel engine's domain): 1-3
// stages glued by '.*', each a run of literal bytes, narrow and wide
// classes and '.', so stages get two rare positions, one, or none.
std::string RandomChainPattern(Rng* rng) {
  static const char* const kTokens[] = {"a", "b", "c", "x",     "[ab]",
                                        "[0-9]", "[a-z]", ".", "ab", "cx"};
  std::string pattern;
  const int stages = 1 + static_cast<int>(rng->NextBounded(3));
  for (int s = 0; s < stages; ++s) {
    if (s > 0) pattern += ".*";
    const int tokens = 1 + static_cast<int>(rng->NextBounded(4));
    for (int t = 0; t < tokens; ++t) {
      pattern += kTokens[rng->NextBounded(std::size(kTokens))];
    }
  }
  return pattern;
}

// A string the pattern matches: each token sampled, '.*' a short filler.
std::string SampleMatch(const std::string& pattern, Rng* rng) {
  std::string out;
  for (size_t i = 0; i < pattern.size(); ++i) {
    const char c = pattern[i];
    if (c == '.' && i + 1 < pattern.size() && pattern[i + 1] == '*') {
      out += rng->FromAlphabet("abcx09 ", rng->NextBounded(3));
      ++i;
    } else if (c == '.') {
      out += rng->FromAlphabet("abcx09-", 1);
    } else if (c == '[') {
      const size_t close = pattern.find(']', i);
      const std::string cls = pattern.substr(i + 1, close - i - 1);
      out += cls == "ab" ? rng->FromAlphabet("ab", 1)
             : cls == "0-9" ? rng->FromAlphabet("0123456789", 1)
                            : rng->FromAlphabet("abcxyz", 1);
      i = close;
    } else {
      out += c;
    }
  }
  return out;
}

// A hand-built string heap: a header, then every string NUL-terminated
// with 0-3 NUL padding bytes (often none, so a row's terminator sits right
// against the next row's first byte). The allocation ends exactly at the
// last string's terminator, so a sanitizer build flags any load past it.
struct RawHeap {
  std::unique_ptr<char[]> bytes;
  std::vector<uint32_t> starts;  // offset of string i
};

RawHeap BuildHeap(const std::vector<std::string>& strings, Rng* rng) {
  std::string bytes(16, 'H');  // header bytes the rows never cover
  RawHeap heap;
  for (size_t i = 0; i < strings.size(); ++i) {
    heap.starts.push_back(static_cast<uint32_t>(bytes.size()));
    bytes += strings[i];
    const bool last = i + 1 == strings.size();
    bytes.append(
        1 + (last || rng->Bernoulli(0.5) ? 0 : rng->NextBounded(4)), '\0');
  }
  heap.bytes = std::make_unique<char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), heap.bytes.get());
  return heap;
}

// Strings for one pattern: random rows, empty rows, a match split across
// two adjacent rows (prefix ends one, suffix starts the next), a match in
// the last string, and three rows of 65534/65535/65536 bytes whose match
// ends at the row's end. An odd count keeps the last string in the
// every-other-row layout.
std::vector<std::string> PlantedStrings(const std::string& pattern,
                                        Rng* rng) {
  const std::string alphabet = "abcxyz0129 -";
  std::vector<std::string> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back(rng->Bernoulli(0.1)
                       ? std::string()
                       : rng->FromAlphabet(alphabet, rng->NextBounded(30)));
    if (rng->Bernoulli(0.15)) rows.back() += SampleMatch(pattern, rng);
  }
  for (int k = 0; k < 4; ++k) {
    const std::string sample = SampleMatch(pattern, rng);
    const size_t cut =
        sample.size() <= 1 ? 0 : 1 + rng->NextBounded(sample.size() - 1);
    const size_t at = rng->NextBounded(rows.size());
    rows.insert(rows.begin() + static_cast<long>(at),
                {rng->FromAlphabet(alphabet, 3) + sample.substr(0, cut),
                 sample.substr(cut) + rng->FromAlphabet(alphabet, 3)});
  }
  for (size_t length : {65534u, 65535u, 65536u}) {
    const std::string sample = SampleMatch(pattern, rng);
    std::string row(length - sample.size(), '-');
    row += sample;
    rows.insert(rows.begin() + static_cast<long>(
                                   rng->NextBounded(rows.size() + 1)),
                std::move(row));
  }
  rows.push_back(rng->FromAlphabet(alphabet, 5) + SampleMatch(pattern, rng));
  if (rows.size() % 2 == 0) rows.insert(rows.begin(), std::string());
  return rows;
}

TEST(FuzzTest, BlockMatchAgreesWithRowsAndOracle) {
  const char* env = std::getenv("DOPPIO_SIMD_LEVEL");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;

  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  Rng rng(4242);
  int programs = 0;
  int filters[3] = {0, 0, 0};  // stage-0 filters: none, one, two positions
  for (int attempt = 0; attempt < 200 && programs < 40; ++attempt) {
    const std::string pattern = RandomChainPattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;
    auto dfa = DfaMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok()) << pattern;
    const std::shared_ptr<const CompiledPuProgram>& program =
        config->program;
    auto bp = BitParallelProgram::Compile(program->nfa());
    ASSERT_TRUE(bp.has_value()) << pattern;
    ++programs;
    ++filters[bp->num_pair_filtered_stages() > 0   ? 2
              : bp->num_anchored_stages() > 0 ? 1
                                              : 0];

    const std::vector<std::string> strings = PlantedStrings(pattern, &rng);
    const RawHeap heap = BuildHeap(strings, &rng);
    const auto* base = reinterpret_cast<const uint8_t*>(heap.bytes.get());

    // Row layouts over the same heap. Contiguous and every-other-string
    // offsets strictly increase (the latter leaves other strings in the
    // gaps); overlapping ones add a row one byte into the next string, so
    // a row runs past the next row's offset; the shuffled ones are not
    // monotone and take the per-row fallback.
    std::vector<std::pair<std::string, std::vector<uint32_t>>> layouts;
    layouts.emplace_back("contiguous", heap.starts);
    std::vector<uint32_t> gaps;
    for (size_t i = 0; i < heap.starts.size(); i += 2) {
      gaps.push_back(heap.starts[i]);
    }
    layouts.emplace_back("every-other", gaps);
    std::vector<uint32_t> overlapping;
    for (size_t i = 0; i < heap.starts.size(); ++i) {
      overlapping.push_back(heap.starts[i]);
      if (strings[i].size() > 1 && rng.Bernoulli(0.3)) {
        overlapping.push_back(heap.starts[i] + 1);
      }
    }
    layouts.emplace_back("overlapping", overlapping);
    std::vector<uint32_t> shuffled = heap.starts;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    layouts.emplace_back("shuffled", shuffled);

    for (const auto& [layout, offsets] : layouts) {
      std::vector<uint16_t> oracle(offsets.size());
      for (size_t i = 0; i < offsets.size(); ++i) {
        const MatchResult m =
            (*dfa)->Find(std::string_view(heap.bytes.get() + offsets[i]));
        oracle[i] = m.matched ? static_cast<uint16_t>(
                                    std::min<int32_t>(m.end, 65535))
                              : 0;
      }
      for (const char* level : {"scalar", "sse2", "avx2"}) {
        setenv("DOPPIO_SIMD_LEVEL", level, 1);
        auto exec =
            BackendRegistry::Global().Get(BackendId::kCpuSimd).NewExecution(
                program);
        ASSERT_STREQ(exec->kernel_name(), "bit-parallel") << pattern;
        RowRun run;
        run.heap = base;
        run.offsets = offsets.data();
        run.rows = offsets.size();
        std::vector<uint16_t> block(offsets.size(), 0xBEEF);
        exec->MatchRows(run, block.data());
        const std::string what = pattern + " " + layout + " " + level;
        for (size_t i = 0; i < offsets.size(); ++i) {
          const uint16_t row = exec->Match(
              std::string_view(heap.bytes.get() + offsets[i]));
          ASSERT_EQ(row, oracle[i]) << what << " per-row, row " << i;
          ASSERT_EQ(block[i], oracle[i]) << what << " block, row " << i;
        }
      }
    }
  }
  EXPECT_EQ(programs, 40);
  // Every stage-0 candidate filter is exercised.
  EXPECT_GT(filters[0], 0);
  EXPECT_GT(filters[1], 0);
  EXPECT_GT(filters[2], 0);

  if (saved.has_value()) {
    setenv("DOPPIO_SIMD_LEVEL", saved->c_str(), 1);
  } else {
    unsetenv("DOPPIO_SIMD_LEVEL");
  }
}

}  // namespace
}  // namespace doppio
