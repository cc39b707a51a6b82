// Closed-loop result-cache benchmark (docs/RESULT_CACHE.md): client-
// observed latency percentiles through the multi-tenant scheduler as a
// function of the workload's repeat rate, with the versioned match-result
// cache off vs on.
//
// Each query either repeats the hot pattern (probability = repeat rate)
// or scans a never-seen-before literal (a guaranteed miss). Every result
// — cached or cold — is compared row-for-row against a direct
// (schedulerless) rescan of the same pattern: the cache must introduce
// ZERO divergence. Emits BENCH_cache.json (override: DOPPIO_BENCH_JSON);
// DOPPIO_BENCH_SMOKE=1 shrinks the workload so CI can run the loop.
//
// The tail improvement is reported over the *repeat* queries: with an
// r-fraction repeat workload the overall p99 is pinned by the cold
// unique scans in both configurations, while the repeats collapse from a
// full engine wave to a block copy — that collapse is what
// repeat_p{50,99}_improvement tracks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "db/hudf.h"
#include "sched/scheduler.h"

namespace doppio {
namespace bench {
namespace {

bool SmokeMode() { return std::getenv("DOPPIO_BENCH_SMOKE") != nullptr; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

/// Deterministic address-flavored corpus (no RNG: byte-stable runs).
void FillCorpus(Bat* input, int64_t rows) {
  for (int64_t i = 0; i < rows; ++i) {
    Status st;
    switch (i % 5) {
      case 0:
        st = input->AppendString(std::to_string(i) +
                                 " Berner Strasse|8" +
                                 std::to_string(1000 + i % 9000));
        break;
      case 1:
        st = input->AppendString(std::to_string(i) + " Berner Gasse|6" +
                                 std::to_string(1000 + i % 9000));
        break;
      case 2:
        st = input->AppendString(std::to_string(i) +
                                 " Haupt Strasse|99999 delivery");
        break;
      case 3:
        st = input->AppendString("Str. " + std::to_string(i) + "|81234");
        break;
      default:
        st = input->AppendString("no address in row " + std::to_string(i));
        break;
    }
    if (!st.ok()) {
      std::fprintf(stderr, "corpus: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
}

struct RateMeasurement {
  std::vector<double> all_seconds;
  std::vector<double> repeat_seconds;
  int64_t divergent_rows = 0;
  int64_t cache_served = 0;
  int64_t cache_hits = 0;
  int64_t bytes_saved = 0;
  double total_seconds = 0;
};

/// One closed loop: `queries` submissions on one session, query i
/// repeating the hot pattern when (i % 10) < repeat_tenths, otherwise
/// scanning a unique literal. `expected` memoizes direct rescans per
/// pattern for the zero-divergence check.
RateMeasurement RunLoop(Hal* hal, const Bat& input, bool cache_on,
                        int repeat_tenths, int queries, int rate_tag,
                        std::map<std::string, std::vector<int16_t>>* expected) {
  sched::QueryScheduler::Options options;
  options.cost_routing = false;
  options.result_cache = cache_on;
  sched::QueryScheduler scheduler(hal, options);
  sched::Session* session = scheduler.CreateSession();

  // Untimed warm-up of the hot pattern: the seeding scan is a miss by
  // construction, and with few timed repeats its cold latency IS the
  // repeat p99 in both configurations — warming it first keeps the
  // repeat tail measuring steady-state serves, not the one population.
  if (repeat_tenths > 0) {
    auto warm = scheduler.Execute(session, input, "Strasse");
    if (!warm.ok()) {
      std::fprintf(stderr, "warmup: %s\n", warm.status().ToString().c_str());
      std::exit(1);
    }
  }

  RateMeasurement out;
  Stopwatch loop_watch;
  for (int i = 0; i < queries; ++i) {
    const bool repeat = (i % 10) < repeat_tenths;
    // Unique patterns are namespaced by rate and cache config so no loop
    // ever benefits from another loop's compilations.
    const std::string pattern =
        repeat ? "Strasse"
               : "uniq" + std::to_string(rate_tag) + "x" +
                     std::to_string(cache_on) + "x" + std::to_string(i);
    Stopwatch query_watch;
    auto result = scheduler.Execute(session, input, pattern);
    const double seconds = query_watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "query %d: %s\n", i,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    out.all_seconds.push_back(seconds);
    if (repeat) out.repeat_seconds.push_back(seconds);

    // Zero-divergence guard: every served block — cold, batched or
    // cache-served — must be bit-identical to a direct rescan.
    auto it = expected->find(pattern);
    if (it == expected->end()) {
      auto config = hal->CompileConfig(pattern);
      if (!config.ok()) std::exit(1);
      auto direct = RegexpFpgaPartitioned(hal, input, *config);
      if (!direct.ok()) std::exit(1);
      std::vector<int16_t> column(static_cast<size_t>(input.count()));
      for (int64_t r = 0; r < input.count(); ++r) {
        column[static_cast<size_t>(r)] = direct->result->GetInt16(r);
      }
      it = expected->emplace(pattern, std::move(column)).first;
    }
    for (int64_t r = 0; r < input.count(); ++r) {
      if (result->hudf.result->GetInt16(r) !=
          it->second[static_cast<size_t>(r)]) {
        ++out.divergent_rows;
      }
    }
  }
  out.total_seconds = loop_watch.ElapsedSeconds();
  out.cache_served = session->cache_served();
  if (scheduler.result_cache() != nullptr) {
    out.cache_hits = scheduler.result_cache()->hits();
    out.bytes_saved = scheduler.result_cache()->bytes_saved();
  }
  return out;
}

void EmitSide(obs::JsonWriter* json, const char* name,
              const RateMeasurement& m) {
  json->Key(name).BeginObject();
  json->Field("p50_us", Percentile(m.all_seconds, 0.50) * 1e6);
  json->Field("p95_us", Percentile(m.all_seconds, 0.95) * 1e6);
  json->Field("p99_us", Percentile(m.all_seconds, 0.99) * 1e6);
  json->Field("repeat_p50_us", Percentile(m.repeat_seconds, 0.50) * 1e6);
  json->Field("repeat_p99_us", Percentile(m.repeat_seconds, 0.99) * 1e6);
  json->Field("total_seconds", m.total_seconds);
  json->Field("cache_served", m.cache_served);
  json->Field("cache_hits", m.cache_hits);
  json->Field("bytes_saved", m.bytes_saved);
  json->EndObject();
}

int Run() {
  MaybeEnableTracing();
  const bool smoke = SmokeMode();
  const int64_t rows = smoke ? 2'000 : ScaledRows(100'000);
  const int queries = smoke ? 40 : 200;
  PrintHeader("Result cache: latency vs repeat rate",
              "repeats collapse from an engine wave to a block copy; "
              "uniques and cold runs are unchanged");

  Hal::Options hal_options;
  hal_options.shared_memory_bytes = int64_t{1} << 30;
  hal_options.functional_threads = 1;
  hal_options.num_devices = NumDevices();
  Hal hal(hal_options);
  Bat input(ValueType::kString, hal.bat_allocator());
  FillCorpus(&input, rows);

  std::printf("rows: %lld   queries per rate: %d%s\n",
              static_cast<long long>(rows), queries,
              smoke ? "   (smoke)" : "");
  std::printf("%12s %12s %12s %14s %14s %12s\n", "repeat rate", "off p99",
              "on p99", "rep p99 off", "rep p99 on", "improvement");

  obs::JsonWriter json;
  json.BeginObject();
  json.Field("schema", "doppio-bench-result-cache-v1");
  json.Key("smoke").Bool(smoke);
  json.Field("rows", rows);
  json.Field("queries_per_rate", static_cast<int64_t>(queries));
  json.Field("hot_pattern", "Strasse");
  json.Key("rates").BeginArray();

  std::map<std::string, std::vector<int16_t>> expected;
  int64_t divergent_total = 0;
  bool improvement_ok = true;
  int rate_tag = 0;
  for (int repeat_tenths : {0, 5, 9}) {
    const double rate = repeat_tenths / 10.0;
    RateMeasurement off = RunLoop(&hal, input, /*cache_on=*/false,
                                  repeat_tenths, queries, rate_tag,
                                  &expected);
    RateMeasurement on = RunLoop(&hal, input, /*cache_on=*/true,
                                 repeat_tenths, queries, rate_tag,
                                 &expected);
    ++rate_tag;
    divergent_total += off.divergent_rows + on.divergent_rows;

    const double off_rep_p99 = Percentile(off.repeat_seconds, 0.99);
    const double on_rep_p99 = Percentile(on.repeat_seconds, 0.99);
    const double off_rep_p50 = Percentile(off.repeat_seconds, 0.50);
    const double on_rep_p50 = Percentile(on.repeat_seconds, 0.50);
    const double p99_improvement =
        off_rep_p99 > 0 ? (off_rep_p99 - on_rep_p99) / off_rep_p99 : 0;
    const double p50_improvement =
        off_rep_p50 > 0 ? (off_rep_p50 - on_rep_p50) / off_rep_p50 : 0;
    if (repeat_tenths >= 5 && p99_improvement <= 0) improvement_ok = false;

    json.BeginObject();
    json.Field("repeat_rate", rate);
    json.Field("divergent_rows", off.divergent_rows + on.divergent_rows);
    EmitSide(&json, "off", off);
    EmitSide(&json, "on", on);
    json.Field("repeat_p50_improvement", p50_improvement);
    json.Field("repeat_p99_improvement", p99_improvement);
    json.EndObject();

    std::printf("%12.1f %10.0fus %10.0fus %12.0fus %12.0fus %11.1f%%\n",
                rate, Percentile(off.all_seconds, 0.99) * 1e6,
                Percentile(on.all_seconds, 0.99) * 1e6, off_rep_p99 * 1e6,
                on_rep_p99 * 1e6, p99_improvement * 100);
  }
  json.EndArray();
  json.Field("divergent_rows_total", divergent_total);
  json.EndObject();

  const std::string text = json.Take();
  if (Status st = obs::CheckJsonSyntax(text); !st.ok()) {
    std::fprintf(stderr, "BENCH_cache.json syntax: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const char* env_path = std::getenv("DOPPIO_BENCH_JSON");
  const char* path = env_path != nullptr ? env_path : "BENCH_cache.json";
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    std::fprintf(stderr, "cannot write %s\n", path);
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::printf("\nwrote %s\n", path);

  if (divergent_total != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld divergent rows between cache-served and "
                 "direct rescans\n",
                 static_cast<long long>(divergent_total));
    return 1;
  }
  if (!improvement_ok) {
    std::fprintf(stderr,
                 "FAIL: no repeat-p99 improvement at repeat rate >= 0.5\n");
    return 1;
  }
  std::printf("zero divergence; repeat-tail improvement present at every "
              "rate >= 0.5\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace doppio

int main() { return doppio::bench::Run(); }
