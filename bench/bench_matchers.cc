// Microbenchmarks (google-benchmark): per-byte cost of each matching
// strategy — the quantitative backdrop for "evaluating regular expressions
// is costly in software" and for the PU's constant consumption rate.
//
// Besides the google-benchmark suite, main() measures the host kernel
// backends (scalar vs. SIMD bit-parallel) on four representative
// workloads and writes the numbers to BENCH_matchers.json (path override:
// DOPPIO_BENCH_JSON) — the tracked perf trajectory for the CPU side.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/processing_unit.h"
#include "hw/pu_kernel.h"
#include "obs/json.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/nfa_matcher.h"
#include "regex/simd_scan.h"
#include "regex/substring_search.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

std::vector<std::string> MakeCorpus(int64_t rows) {
  AddressDataOptions options;
  options.num_records = rows;
  Rng rng(1);
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    corpus.push_back(GenerateAddressString(
        &rng, options, rng.Bernoulli(0.2), rng.Bernoulli(0.2),
        rng.Bernoulli(0.2), rng.Bernoulli(0.2), false));
  }
  return corpus;
}

/// DOPPIO_BENCH_SMOKE=1 shrinks the corpus so CI can exercise every
/// benchmark path in seconds (numbers are not meaningful in smoke mode).
bool SmokeMode() { return std::getenv("DOPPIO_BENCH_SMOKE") != nullptr; }

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus =
      MakeCorpus(SmokeMode() ? 300 : 10'000);
  return corpus;
}

int64_t CorpusBytes() {
  int64_t bytes = 0;
  for (const auto& s : Corpus()) bytes += static_cast<int64_t>(s.size());
  return bytes;
}

EvalQuery QueryForIndex(int64_t index) {
  switch (index) {
    case 1:
      return EvalQuery::kQ1;
    case 2:
      return EvalQuery::kQ2;
    case 3:
      return EvalQuery::kQ3;
    default:
      return EvalQuery::kQ4;
  }
}

void BM_Dfa(benchmark::State& state) {
  auto matcher = DfaMatcher::Compile(QueryPattern(QueryForIndex(state.range(0))));
  if (!matcher.ok()) state.SkipWithError("compile failed");
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += (*matcher)->Matches(s);
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
}
BENCHMARK(BM_Dfa)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_NfaSimulation(benchmark::State& state) {
  auto matcher = NfaMatcher::Compile(QueryPattern(QueryForIndex(state.range(0))));
  if (!matcher.ok()) state.SkipWithError("compile failed");
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += (*matcher)->Matches(s);
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
}
BENCHMARK(BM_NfaSimulation)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_Backtracking(benchmark::State& state) {
  auto matcher =
      BacktrackMatcher::Compile(QueryPattern(QueryForIndex(state.range(0))));
  if (!matcher.ok()) state.SkipWithError("compile failed");
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += (*matcher)->Matches(s);
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
}
BENCHMARK(BM_Backtracking)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_MultiSubstringLike(benchmark::State& state) {
  auto matcher = MultiSubstringMatcher::Create({"Strasse"});
  if (!matcher.ok()) state.SkipWithError("create failed");
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += (*matcher)->Matches(s);
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
}
BENCHMARK(BM_MultiSubstringLike)->Unit(benchmark::kMillisecond);

void BM_ProcessingUnitSim(benchmark::State& state) {
  DeviceConfig device;
  auto config =
      CompileRegexConfig(QueryPattern(QueryForIndex(state.range(0))), device);
  if (!config.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  auto program = CompiledPuProgram::Compile(config->vector, device);
  if (!program.ok()) {
    state.SkipWithError("config");
    return;
  }
  ProcessingUnit pu;
  pu.Configure(*program);
  state.SetLabel(std::string("kernel=") + PuKernelName(pu.kernel()));
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += pu.ProcessString(s) != 0;
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
  state.counters["functional_mbps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * CorpusBytes()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProcessingUnitSim)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

// PU compiled-kernel comparison: the same PU program run through the
// auto-selected kernel vs. forced backends. The kernel tag rides in the
// benchmark label and the throughput in the `functional_mbps` counter, so
// BENCH_*.json tracking can chart selection and speedups over time.
void RunPuKernel(benchmark::State& state, PuKernelOptions::Force force) {
  DeviceConfig device;
  auto config =
      CompileRegexConfig(QueryPattern(QueryForIndex(state.range(0))), device);
  if (!config.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  PuKernelOptions kopts;
  kopts.force = force;
  auto program = CompiledPuProgram::Compile(config->vector, device, kopts);
  if (!program.ok()) {
    state.SkipWithError("kernel compile failed");
    return;
  }
  ProcessingUnit pu;
  pu.Configure(*program);
  state.SetLabel(std::string("kernel=") + PuKernelName(pu.kernel()));
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += pu.ProcessString(s) != 0;
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
  state.counters["functional_mbps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * CorpusBytes()) / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_PuKernelAuto(benchmark::State& state) {
  RunPuKernel(state, PuKernelOptions::Force::kAuto);
}
BENCHMARK(BM_PuKernelAuto)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_PuKernelLazyDfa(benchmark::State& state) {
  RunPuKernel(state, PuKernelOptions::Force::kLazyDfa);
}
BENCHMARK(BM_PuKernelLazyDfa)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_PuKernelNfaLoop(benchmark::State& state) {
  RunPuKernel(state, PuKernelOptions::Force::kNfaLoop);
}
BENCHMARK(BM_PuKernelNfaLoop)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_ConfigCompile(benchmark::State& state) {
  DeviceConfig device;
  for (auto _ : state) {
    auto config = CompileRegexConfig(QueryPattern(EvalQuery::kQ2), device);
    benchmark::DoNotOptimize(config);
  }
}
BENCHMARK(BM_ConfigCompile)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Host backend trajectory: scalar vs. SIMD bit-parallel on four workload
// shapes. Each shape stresses a different accelerated path of the SIMD
// backend; the scalar-lazy-DFA baseline is what every shape ran on before
// the backend registry existed.
// ---------------------------------------------------------------------------

struct BackendWorkload {
  const char* name;
  std::string pattern;
};

const std::vector<BackendWorkload>& BackendWorkloads() {
  static const std::vector<BackendWorkload> workloads = {
      {"literal_scan", "Strasse"},
      {"word_automaton", "8[0-9][0-9][0-9][0-9]"},
      {"multi_stage", "Str.*8[0-9][0-9][0-9]"},
      {"prefilter_dfa", QueryPattern(EvalQuery::kQ2)},
  };
  return workloads;
}

std::shared_ptr<const CompiledPuProgram> MustCompileWorkload(
    const std::string& pattern, PuKernelOptions::Force force) {
  DeviceConfig device;
  auto config = CompileRegexConfig(pattern, device);
  if (!config.ok()) {
    std::fprintf(stderr, "workload compile failed: %s\n",
                 config.status().ToString().c_str());
    std::exit(1);
  }
  PuKernelOptions kopts;
  kopts.force = force;
  auto program = CompiledPuProgram::Compile(config->vector, device, kopts);
  if (!program.ok()) {
    std::fprintf(stderr, "kernel compile failed: %s\n",
                 program.status().ToString().c_str());
    std::exit(1);
  }
  return *program;
}

struct BackendMeasurement {
  double mbps = 0;
  int64_t matches = 0;
  std::string kernel;
};

BackendMeasurement MeasureExecution(HostExecution* exec,
                                    double min_seconds) {
  const auto& corpus = Corpus();
  BackendMeasurement out;
  out.kernel = exec->kernel_name();
  for (const auto& s : corpus) out.matches += exec->Match(s) != 0;
  int64_t sink = 0;
  int64_t reps = 0;
  Stopwatch sw;
  do {
    for (const auto& s : corpus) sink += exec->Match(s);
    ++reps;
  } while (sw.ElapsedSeconds() < min_seconds);
  const double elapsed = sw.ElapsedSeconds();
  benchmark::DoNotOptimize(sink);
  out.mbps = obs::SafeRate(
      static_cast<double>(CorpusBytes()) * static_cast<double>(reps),
      elapsed * 1e6);
  return out;
}

// google-benchmark view of the same comparison, so ad-hoc runs can chart
// it with the standard tooling (`--benchmark_filter=HostBackend`).
void RunHostBackend(benchmark::State& state, BackendId backend,
                    PuKernelOptions::Force force) {
  const BackendWorkload& w =
      BackendWorkloads()[static_cast<size_t>(state.range(0))];
  auto program = MustCompileWorkload(w.pattern, force);
  auto exec = BackendRegistry::Global().Get(backend).NewExecution(program);
  state.SetLabel(std::string(w.name) + " kernel=" + exec->kernel_name());
  int64_t matches = 0;
  for (auto _ : state) {
    for (const auto& s : Corpus()) {
      matches += exec->Match(s) != 0;
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetBytesProcessed(state.iterations() * CorpusBytes());
}

void BM_HostBackendScalarLazyDfa(benchmark::State& state) {
  RunHostBackend(state, BackendId::kCpuScalar,
                 PuKernelOptions::Force::kLazyDfa);
}
BENCHMARK(BM_HostBackendScalarLazyDfa)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_HostBackendSimd(benchmark::State& state) {
  RunHostBackend(state, BackendId::kCpuSimd, PuKernelOptions::Force::kAuto);
}
BENCHMARK(BM_HostBackendSimd)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Measures every workload on all three host configurations and writes
/// the tracked BENCH_matchers.json. Returns nonzero on any correctness or
/// JSON failure so CI trips.
int EmitBackendTrajectory() {
  const double min_seconds = SmokeMode() ? 0.02 : 0.25;
  const BackendRegistry& registry = BackendRegistry::Global();

  obs::JsonWriter json;
  json.BeginObject();
  json.Field("schema", "doppio-bench-matchers-v1");
  json.Key("smoke").Bool(SmokeMode());
  json.Field("simd_level_detected",
             simd::SimdLevelName(simd::DetectedSimdLevel()));
  json.Field("simd_level_active",
             simd::SimdLevelName(simd::ActiveSimdLevel()));
  json.Key("corpus").BeginObject();
  json.Field("rows", static_cast<int64_t>(Corpus().size()));
  json.Field("bytes", CorpusBytes());
  json.EndObject();
  json.Key("workloads").BeginArray();

  std::printf("\nHost backend trajectory (corpus %zu rows, %lld bytes)\n",
              Corpus().size(),
              static_cast<long long>(CorpusBytes()));
  bool ok = true;
  for (const BackendWorkload& w : BackendWorkloads()) {
    auto lazy_dfa_program =
        MustCompileWorkload(w.pattern, PuKernelOptions::Force::kLazyDfa);
    auto auto_program =
        MustCompileWorkload(w.pattern, PuKernelOptions::Force::kAuto);
    auto baseline_exec = registry.Get(BackendId::kCpuScalar)
                             .NewExecution(lazy_dfa_program);
    auto scalar_exec =
        registry.Get(BackendId::kCpuScalar).NewExecution(auto_program);
    auto simd_exec =
        registry.Get(BackendId::kCpuSimd).NewExecution(auto_program);

    BackendMeasurement baseline =
        MeasureExecution(baseline_exec.get(), min_seconds);
    BackendMeasurement scalar =
        MeasureExecution(scalar_exec.get(), min_seconds);
    BackendMeasurement simd = MeasureExecution(simd_exec.get(), min_seconds);
    if (baseline.matches != simd.matches ||
        scalar.matches != simd.matches) {
      std::fprintf(stderr,
                   "%s: backend match counts disagree "
                   "(lazy-dfa %lld, scalar %lld, simd %lld)\n",
                   w.name, static_cast<long long>(baseline.matches),
                   static_cast<long long>(scalar.matches),
                   static_cast<long long>(simd.matches));
      ok = false;
    }

    const double vs_lazy = obs::SafeRate(simd.mbps, baseline.mbps);
    const double vs_scalar = obs::SafeRate(simd.mbps, scalar.mbps);
    json.BeginObject();
    json.Field("name", w.name);
    json.Field("pattern", w.pattern);
    json.Field("chosen_backend",
               BackendName(registry.ChooseHost(*auto_program).id()));
    json.Field("simd_kernel", simd.kernel);
    json.Field("scalar_kernel", scalar.kernel);
    json.Field("matches", simd.matches);
    json.Field("scalar_lazy_dfa_mbps", baseline.mbps);
    json.Field("scalar_auto_mbps", scalar.mbps);
    json.Field("simd_mbps", simd.mbps);
    json.Field("speedup_vs_scalar_lazy_dfa", vs_lazy);
    json.Field("speedup_vs_scalar_auto", vs_scalar);
    json.EndObject();

    std::printf(
        "  %-14s %-22s lazy-dfa %8.1f MB/s  scalar(%s) %8.1f MB/s  "
        "simd(%s) %8.1f MB/s  speedup %5.2fx\n",
        w.name, simd.kernel.c_str(), baseline.mbps, scalar.kernel.c_str(),
        scalar.mbps, simd.kernel.c_str(), simd.mbps, vs_lazy);
  }
  json.EndArray();
  json.EndObject();

  const std::string text = json.Take();
  Status syntax = obs::CheckJsonSyntax(text);
  if (!syntax.ok()) {
    std::fprintf(stderr, "BENCH_matchers.json syntax: %s\n",
                 syntax.ToString().c_str());
    return 1;
  }
  const char* env_path = std::getenv("DOPPIO_BENCH_JSON");
  const char* path = env_path != nullptr ? env_path : "BENCH_matchers.json";
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    std::fprintf(stderr, "cannot write %s\n", path);
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "backend trajectory written to %s\n", path);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace doppio

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return doppio::EmitBackendTrajectory();
}
