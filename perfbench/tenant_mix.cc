// tenant_mix: four tenants sharing a two-device deployment through the
// multi-tenant scheduler.
//
// One client thread runs 4 sessions (weights 1/1/2/4) in a closed loop
// with one query outstanding per session: it submits for every session
// whose last query returned, then Waits on them in order. Driven from one
// thread the scheduler is deterministic (thread interleaving would decide
// how waves are composed and add ~20 % run-to-run spread).
//
// Mix: 50 % one of 8 hot patterns on a 200 k-row column (served from the
// result cache or set-coalesced), 25 % never-seen literals on the same
// column (program-cache misses, cold pooled scans) and 25 % never-seen
// patterns on a 2 k-row column (compile-dominated, routed to the CPU).
// It exercises admission and deficit round-robin, coalescing, both caches,
// pooled multi-device execution and cost routing; its working set fits the
// 64 MiB result cache.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "hal/hal.h"
#include "hw/config_compiler.h"
#include "hw/pu_kernel.h"
#include "sched/scheduler.h"
#include "workload/address_generator.h"

namespace perfbench {
namespace {

using namespace doppio;

constexpr int64_t kBigRows = 200'000;
constexpr int64_t kSmallRows = 2'000;
constexpr int kSchedulerCpuThreads = 1;
const int kWeights[] = {1, 1, 2, 4};

const char* const kHotPatterns[] = {
    "Strasse", R"((Strasse|Str\.).*(8[0-9]{4}))", "[0-9]+(USD|EUR|GBP)",
    R"([A-Za-z]{3}\:[0-9]{4})", R"(Str\.)", "8[0-9]{4}", "(EUR|GBP)",
    "delivery",
};
const char* const kStems[] = {"Koblenzer", "Berner",  "Wiener", "Bremer",
                              "Kieler",    "Mainzer", "Erfurter", "Jenaer",
                              "Bonner",    "Hagener"};
const char* const kSuffixes[] = {"Gasse", "Weg",  "Platz",  "Allee",
                                 "Ring",  "Road", "Strasse"};

// Members are destroyed in reverse order: sessions and waves end with the
// scheduler, BATs before the HAL whose shared region holds them.
struct TenantSystem {
  std::unique_ptr<Hal> hal;
  std::unique_ptr<Bat> big;
  std::unique_ptr<Bat> small;
  std::unique_ptr<sched::QueryScheduler> scheduler;
  std::vector<sched::Session*> sessions;
  double append_seconds = 0;

  void TearDown() {
    sessions.clear();
    scheduler.reset();
    small.reset();
    big.reset();
    hal.reset();
  }
};

std::unique_ptr<Bat> LoadColumn(const Bat& source, BufferAllocator* allocator,
                                double* append_seconds) {
  auto bat = std::make_unique<Bat>(ValueType::kString, allocator);
  const double start = NowSeconds();
  Status st = bat->Reserve(source.count(), 80);
  for (int64_t i = 0; st.ok() && i < source.count(); ++i) {
    st = bat->AppendString(source.GetString(i));
  }
  *append_seconds += NowSeconds() - start;
  if (!st.ok()) Die("load: " + st.ToString());
  return bat;
}

std::unique_ptr<Table> Generate(int64_t rows, uint64_t seed) {
  AddressDataOptions data;
  data.num_records = rows;
  data.seed = seed;
  auto table = GenerateAddressTable(data, "generated");
  if (!table.ok()) Die("data generation: " + table.status().ToString());
  return std::move(*table);
}

TenantSystem BuildSystem(uint64_t seed) {
  TenantSystem sys;
  Hal::Options hal_options;
  hal_options.shared_memory_bytes = int64_t{512} << 20;
  hal_options.num_devices = 2;
  hal_options.functional_threads = kFunctionalThreads;
  sys.hal = std::make_unique<Hal>(hal_options);

  auto big = Generate(kBigRows, seed);
  auto small = Generate(kSmallRows, seed + 1);
  sys.big = LoadColumn(*big->GetColumn("address_string"),
                       sys.hal->bat_allocator(), &sys.append_seconds);
  sys.small = LoadColumn(*small->GetColumn("address_string"),
                         sys.hal->bat_allocator(), &sys.append_seconds);

  // Constructing the scheduler calibrates its cost model.
  sched::QueryScheduler::Options options;
  options.cpu_threads = kSchedulerCpuThreads;
  options.result_cache = true;
  options.set_compilation = true;
  sys.scheduler =
      std::make_unique<sched::QueryScheduler>(sys.hal.get(), options);
  for (int i = 0; i < 4; ++i) {
    sched::SessionOptions session;
    session.tenant = "tenant" + std::to_string(i);
    session.weight = kWeights[i];
    sys.sessions.push_back(sys.scheduler->CreateSession(session));
  }
  return sys;
}

struct TenantQuery {
  std::string pattern;
  bool big = true;
  bool cold = false;
  const std::vector<uint8_t>* expected = nullptr;
  std::vector<uint8_t> own_expected;  // cold queries
};

// Every round holds exactly two hot queries, one cold big-column literal
// and one cold small-column pattern, rotated across the sessions from
// round to round. A fixed composition keeps the mix at 50/25/25 in every
// run: with independent draws, the share of rounds that contain a cold
// scan varies by seed, and since one wave serves a whole round that would
// move the latency percentiles from seed to seed.
enum class Kind { kHot, kColdBig, kColdSmall };
constexpr Kind kRoundKinds[] = {Kind::kHot, Kind::kColdBig, Kind::kHot,
                                Kind::kColdSmall};

// Draws the workload's query stream from the seed. Cold patterns come
// from seeded shuffles of finite spaces, so no pattern repeats within a
// run of any length the benchmark uses (13 930 literals, 7 960 patterns).
class QueryStream {
 public:
  explicit QueryStream(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 7) {
    for (int n = 1; n < 200; ++n) {
      for (const char* stem : kStems) {
        for (const char* suffix : kSuffixes) {
          literals_.push_back(std::to_string(n) + " " + stem + " " + suffix);
        }
        for (int k = 2; k <= 5; ++k) {
          small_.push_back(std::to_string(n) + " " + stem + " [A-Z][a-z]{" +
                           std::to_string(k) + "}");
        }
      }
    }
    Shuffle(&literals_);
    Shuffle(&small_);
  }

  TenantQuery Next(Kind kind,
                   const std::vector<std::vector<uint8_t>>& hot_expected) {
    TenantQuery q;
    switch (kind) {
      case Kind::kHot: {
        const size_t i = rng_.NextBounded(hot_expected.size());
        q.pattern = kHotPatterns[i];
        q.expected = &hot_expected[i];
        break;
      }
      case Kind::kColdBig:
        q.pattern = literals_[next_literal_++ % literals_.size()];
        q.cold = true;
        break;
      case Kind::kColdSmall:
        q.pattern = small_[next_small_++ % small_.size()];
        q.big = false;
        q.cold = true;
        break;
    }
    return q;
  }

 private:
  void Shuffle(std::vector<std::string>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.NextBounded(i)]);
    }
  }

  Rng rng_;
  std::vector<std::string> literals_;
  std::vector<std::string> small_;
  size_t next_literal_ = 0;
  size_t next_small_ = 0;
};

bool ResultMatches(const sched::ScheduledResult& r,
                   const std::vector<uint8_t>& expected) {
  const Bat* bat = r.hudf.result.get();
  if (bat == nullptr ||
      bat->count() != static_cast<int64_t>(expected.size())) {
    return false;
  }
  for (int64_t i = 0; i < bat->count(); ++i) {
    if ((bat->GetInt16(i) != 0) != (expected[static_cast<size_t>(i)] != 0)) {
      return false;
    }
  }
  return true;
}

struct Samples {
  std::vector<double> latency, device, submit, wait, config_gen,
      program_compile, hal;
  int64_t routes[4] = {0, 0, 0, 0};
  double batch_width = 0, set_width = 0;
  int64_t completed = 0, overloaded = 0;
  double functional_bytes = 0, functional_seconds = 0, sim_host = 0,
         fpga_latency = 0;
  KernelCounts kernels;
  double busy = 0;          // client time in Submit/Wait
  double rounds_total = 0;  // traced: Σ round spans
  double stage_total = 0;   // traced: Σ submit + wait spans
};

// One round of the closed loop: submit for every session, then Wait on
// each in order. Oracle work happens before and after the timed part.
void RunRound(TenantSystem* sys, QueryStream* stream,
              const std::vector<std::vector<uint8_t>>& hot_expected,
              const std::vector<std::string>& big_rows,
              const std::vector<std::string>& small_rows, SpanLog* spans,
              int64_t* query_id, Samples* s, Report* report) {
  const size_t n = sys->sessions.size();
  std::vector<TenantQuery> queries(n);
  const int64_t round_index = *query_id / static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const Kind kind = kRoundKinds[(i + static_cast<size_t>(round_index)) % 4];
    queries[i] = stream->Next(kind, hot_expected);
    TenantQuery& q = queries[i];
    if (q.cold) {
      // Cold big-column patterns are plain literals.
      q.own_expected = q.big ? OracleContains(big_rows, q.pattern)
                             : OracleMatches(small_rows, q.pattern);
      q.expected = &q.own_expected;
    }
  }

  std::vector<sched::QueryTicket> tickets(n);
  std::vector<double> submitted(n, 0);
  std::vector<Result<sched::ScheduledResult>> results;
  std::vector<double> finished(n, 0);
  std::vector<bool> admitted(n, false);
  std::vector<int> submit_span(n, -1);
  std::vector<int> wait_span(n, -1);

  const double round_start = NowSeconds();
  const int round =
      spans != nullptr ? spans->Begin("round", SpanLog::kNoParent, *query_id)
                       : -1;
  for (size_t i = 0; i < n; ++i) {
    const Bat& input = queries[i].big ? *sys->big : *sys->small;
    const int64_t id = *query_id + static_cast<int64_t>(i);
    const double t0 = NowSeconds();
    if (spans != nullptr) submit_span[i] = spans->Begin("sched.submit", round, id);
    auto ticket = sys->scheduler->Submit(sys->sessions[i], input,
                                         queries[i].pattern);
    if (spans != nullptr) spans->End(submit_span[i]);
    s->submit.push_back(NowSeconds() - t0);
    submitted[i] = t0;
    if (ticket.ok()) {
      tickets[i] = *ticket;
      admitted[i] = true;
    } else if (ticket.status().IsOverloaded()) {
      ++s->overloaded;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!admitted[i]) {
      results.emplace_back(Status::Unavailable("not admitted"));
      continue;
    }
    const int64_t id = *query_id + static_cast<int64_t>(i);
    const double t0 = NowSeconds();
    if (spans != nullptr) wait_span[i] = spans->Begin("sched.wait", round, id);
    results.push_back(sys->scheduler->Wait(tickets[i]));
    if (spans != nullptr) spans->End(wait_span[i]);
    finished[i] = NowSeconds();
    s->wait.push_back(finished[i] - t0);
  }
  s->busy += NowSeconds() - round_start;
  if (spans != nullptr) {
    spans->End(round);
    s->rounds_total += spans->Seconds(round);
    for (size_t i = 0; i < n; ++i) {
      if (submit_span[i] >= 0) s->stage_total += spans->Seconds(submit_span[i]);
      if (wait_span[i] >= 0) s->stage_total += spans->Seconds(wait_span[i]);
    }
  }

  // Untimed: oracle comparison, then (traced) replay of the compile work
  // a cold query's Submit did, charged to that Submit.
  for (size_t i = 0; i < n; ++i) {
    const TenantQuery& q = queries[i];
    const bool call_ok = admitted[i] && results[i].ok();
    report->CountOperation(call_ok,
                           call_ok && ResultMatches(*results[i], *q.expected));
    if (!admitted[i] || !results[i].ok()) continue;
    const sched::ScheduledResult& r = *results[i];
    ++s->completed;
    s->latency.push_back(finished[i] - submitted[i]);
    s->routes[static_cast<int>(r.route)] += 1;
    s->batch_width += r.batch_width;
    s->set_width += r.set_width;
    if (r.route == sched::Route::kFpga) {
      const QueryStats& st = r.hudf.stats;
      s->device.push_back(st.hw_seconds + st.page_in_seconds);
      s->hal.push_back(st.hal_seconds);
      s->functional_bytes += static_cast<double>(st.functional_bytes);
      s->functional_seconds += st.functional_seconds;
      s->sim_host += st.sim_host_seconds;
      s->fpga_latency += finished[i] - submitted[i];
      s->kernels.Add(st);
    }
    if (spans != nullptr && q.cold) {
      const int64_t id = *query_id + static_cast<int64_t>(i);
      const int c = spans->Begin("hw.config_gen", submit_span[i], id);
      auto config = CompileRegexConfig(q.pattern, sys->hal->device_config());
      spans->End(c);
      s->config_gen.push_back(spans->Seconds(c));
      if (config.ok()) {
        const int k = spans->Begin("hw.program_compile", submit_span[i], id);
        auto program =
            CompiledPuProgram::Compile(config->vector, sys->hal->device_config());
        spans->End(k);
        s->program_compile.push_back(spans->Seconds(k));
      }
    }
  }
  *query_id += static_cast<int64_t>(n);
}

}  // namespace

void RunTenantMix(const RunConfig& config, Report* report) {
  report->Provenance("big_rows", std::to_string(kBigRows));
  report->Provenance("small_rows", std::to_string(kSmallRows));
  report->Provenance("devices", "2");
  report->Provenance("hal_functional_threads",
                     std::to_string(kFunctionalThreads));
  report->Provenance("scheduler_cpu_threads",
                     std::to_string(kSchedulerCpuThreads));
  report->Provenance("client_threads", std::to_string(kClientThreads));
  report->Provenance("sessions", "4 (weights 1/1/2/4)");
  report->Provenance("result_cache", "on (64 MiB)");
  report->Provenance("set_compilation", "on");

  // Set up several times and keep the last system. The warm-up round runs
  // every hot pattern once, so later hot queries meet warm caches.
  std::vector<double> setup_seconds;
  std::vector<double> append_rates;
  TenantSystem sys;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sys.TearDown();
    const double start = NowSeconds();
    sys = BuildSystem(config.seed);
    for (const char* pattern : kHotPatterns) {
      auto warm = sys.scheduler->Execute(sys.sessions[0], *sys.big, pattern);
      if (!warm.ok()) Die(std::string("warm-up ") + pattern + ": " +
                          warm.status().ToString());
    }
    setup_seconds.push_back(NowSeconds() - start);
    append_rates.push_back(static_cast<double>(kBigRows + kSmallRows) /
                           sys.append_seconds);
  }

  const std::vector<std::string> big_rows = ColumnStrings(*sys.big);
  const std::vector<std::string> small_rows = ColumnStrings(*sys.small);
  std::vector<std::vector<uint8_t>> hot_expected;
  for (const char* pattern : kHotPatterns) {
    hot_expected.push_back(OracleMatches(big_rows, pattern));
  }

  QueryStream stream(config.seed);
  int64_t query_id = 0;
  const double untraced_budget =
      config.trace ? config.seconds / 3 : config.seconds;
  Samples untraced;
  const double loop_start = NowSeconds();
  do {
    RunRound(&sys, &stream, hot_expected, big_rows, small_rows, nullptr,
             &query_id, &untraced, report);
  } while (NowSeconds() - loop_start < untraced_budget);

  if (!config.trace) {
    report->EndToEnd("query_p50_ms", Quantile(untraced.latency, 0.5) * 1e3,
                     "ms", Clock::kHost);
    report->EndToEnd("query_p90_ms", Quantile(untraced.latency, 0.9) * 1e3,
                     "ms", Clock::kHost);
    report->EndToEnd("throughput_qps",
                     static_cast<double>(untraced.completed) / untraced.busy,
                     "1/s", Clock::kHost);
    report->EndToEnd("device_ms_p50", Quantile(untraced.device, 0.5) * 1e3,
                     "ms", Clock::kVirtual);
    report->EndToEnd("setup_s", Quantile(setup_seconds, 0.5), "s",
                     Clock::kHost);
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB", Clock::kHost);
    report->Extra("timed_queries", static_cast<double>(untraced.completed),
                  "count", Clock::kNone);
    report->Extra("device_queries", static_cast<double>(untraced.device.size()),
                  "count", Clock::kNone);
    return;
  }

  SpanLog spans;
  Samples s;
  const int64_t jobs_before = CounterValue("doppio.device.jobs_submitted");
  const int64_t retries_before = CounterValue("doppio.lifecycle.retries");
  const int64_t pc_hits = CounterValue("doppio.sched.program_cache.hits");
  const int64_t pc_misses = CounterValue("doppio.sched.program_cache.misses");
  const int64_t rc_hits = CounterValue("doppio.sched.result_cache.hits");
  const int64_t rc_misses = CounterValue("doppio.sched.result_cache.misses");
  const int64_t rc_partial =
      CounterValue("doppio.sched.result_cache.partial_hits");
  const int64_t rc_saved = CounterValue("doppio.sched.result_cache.bytes_saved");
  const double traced_start = NowSeconds();
  do {
    RunRound(&sys, &stream, hot_expected, big_rows, small_rows, &spans,
             &query_id, &s, report);
  } while (NowSeconds() - traced_start < config.seconds - untraced_budget);

  const double queries = static_cast<double>(s.completed);
  const int64_t pc_lookups =
      CounterValue("doppio.sched.program_cache.hits") - pc_hits +
      CounterValue("doppio.sched.program_cache.misses") - pc_misses;
  const int64_t rc_hit_delta =
      CounterValue("doppio.sched.result_cache.hits") - rc_hits;
  const int64_t rc_lookups =
      rc_hit_delta + CounterValue("doppio.sched.result_cache.misses") - rc_misses;

  report->Layer("db.ingest_rows_per_s", Quantile(append_rates, 0.5), "rows/s",
                Clock::kHost);
  report->Layer("sched.submit_us", Quantile(s.submit, 0.5) * 1e6, "us",
                Clock::kHost);
  report->Layer("sched.wait_ms", Quantile(s.wait, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("sched.queries", queries, "count", Clock::kNone);
  report->Layer("sched.route.fpga", static_cast<double>(s.routes[0]), "count",
                Clock::kNone);
  report->Layer("sched.route.cpu_program", static_cast<double>(s.routes[1]),
                "count", Clock::kNone);
  report->Layer("sched.route.cpu_dfa", static_cast<double>(s.routes[2]),
                "count", Clock::kNone);
  report->Layer("sched.route.cache", static_cast<double>(s.routes[3]), "count",
                Clock::kNone);
  report->Layer("sched.batch_width_mean",
                queries > 0 ? s.batch_width / queries : 0, "slots",
                Clock::kNone);
  report->Layer("sched.set_width_mean", queries > 0 ? s.set_width / queries : 0,
                "patterns", Clock::kNone);
  report->Layer("sched.program_cache.hit_ratio",
                pc_lookups > 0
                    ? static_cast<double>(
                          CounterValue("doppio.sched.program_cache.hits") -
                          pc_hits) /
                          static_cast<double>(pc_lookups)
                    : 0,
                "ratio", Clock::kNone);
  report->Layer("sched.program_cache.lookups", static_cast<double>(pc_lookups),
                "count", Clock::kNone);
  report->Layer("sched.result_cache.hit_ratio",
                rc_lookups > 0 ? static_cast<double>(rc_hit_delta) /
                                     static_cast<double>(rc_lookups)
                               : 0,
                "ratio", Clock::kNone);
  report->Layer("sched.result_cache.lookups", static_cast<double>(rc_lookups),
                "count", Clock::kNone);
  report->Layer("sched.result_cache.partial_hits",
                static_cast<double>(
                    CounterValue("doppio.sched.result_cache.partial_hits") -
                    rc_partial),
                "count", Clock::kNone);
  report->Layer("sched.result_cache.bytes_saved",
                static_cast<double>(
                    CounterValue("doppio.sched.result_cache.bytes_saved") -
                    rc_saved),
                "bytes", Clock::kNone);
  report->Layer("sched.overloaded", static_cast<double>(s.overloaded), "count",
                Clock::kNone);
  report->Layer("hw.config_gen_us", Quantile(s.config_gen, 0.5) * 1e6, "us",
                Clock::kHost);
  report->Layer("hw.program_compile_us",
                Quantile(s.program_compile, 0.5) * 1e6, "us", Clock::kHost);
  report->Layer("hw.functional_mbps",
                s.functional_seconds > 0
                    ? s.functional_bytes / 1e6 / s.functional_seconds
                    : 0,
                "MB/s", Clock::kHost);
  report->Layer("hw.sim_host_share",
                s.fpga_latency > 0 ? s.sim_host / s.fpga_latency : 0, "ratio",
                Clock::kHost);
  s.kernels.ReportTo(report);
  report->Layer("hw.device_ms", Quantile(s.device, 0.5) * 1e3, "ms",
                Clock::kVirtual);
  report->Layer("hal.ms", Quantile(s.hal, 0.5) * 1e3, "ms", Clock::kHost);
  report->Layer("hal.jobs",
                static_cast<double>(CounterValue("doppio.device.jobs_submitted") -
                                    jobs_before),
                "count", Clock::kNone);
  report->Layer("hal.retries",
                static_cast<double>(CounterValue("doppio.lifecycle.retries") -
                                    retries_before),
                "count", Clock::kNone);
  report->Layer("bench.reconcile_error",
                s.rounds_total > 0
                    ? std::abs(s.stage_total - s.rounds_total) / s.rounds_total
                    : 0,
                "ratio", Clock::kHost);
  report->Layer("bench.trace_overhead_ratio",
                Quantile(s.latency, 0.5) / Quantile(untraced.latency, 0.5),
                "ratio", Clock::kHost);
  report->Layer("bench.traced_queries", queries, "count", Clock::kNone);
  report->SetSpansJson(spans.ToJson());
}

}  // namespace perfbench
