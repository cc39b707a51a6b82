// ingest_scan: writes beside reads, one client.
//
// Each round appends a 10 k-row batch to two columns: a segmented column
// (AppendToSegmented, 256 KiB auto-sealed segments) and a resident column
// (AppendToColumn). It then scans both: the segmented column twice through
// EvalSegmentedFilter with Q1-Q4 rotating, under an 8 MiB pager budget
// well below the final sealed size (~27 MB at 400 k rows), and the
// resident column through REGEXP_HYBRID SQL with the engine's result
// cache attached. The data outgrows the program's own cache (the pager),
// so residency and re-page-ins decide scan cost, and mixing writes with
// reads exposes a gain on one side that costs the other.
//
// A cycle is 40 rounds on a fresh engine (400 k rows per column). The run
// measures whole cycles, so every run samples the same column sizes.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "db/column_store.h"
#include "hal/hal.h"
#include "replay.h"
#include "sched/result_cache.h"
#include "sql/executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using namespace doppio;

constexpr int kRounds = 40;
constexpr int64_t kBatchRows = 10'000;
constexpr int64_t kRows = kRounds * kBatchRows;
constexpr int64_t kPagerBudget = int64_t{8} << 20;
constexpr int64_t kSegmentBytes = int64_t{256} << 10;
constexpr int64_t kResultCacheBytes = int64_t{64} << 20;
// Two segmented scans per resident scan keep the latency median inside the
// segmented scans' distribution instead of on the seam between the two
// legs, where it would jump from run to run.
constexpr int kSegmentScansPerRound = 2;

const EvalQuery kSegmentQueries[] = {EvalQuery::kQ1, EvalQuery::kQ2,
                                     EvalQuery::kQ3, EvalQuery::kQ4};
const char kTable[] = "ingest";
const char kSegTable[] = "ingest_seg";
const char kColumn[] = "s";

// One ingest cycle's engine. Members are destroyed in reverse order: the
// engine before the result cache it points to.
struct CycleEngine {
  std::unique_ptr<sched::ResultCache> cache;
  std::unique_ptr<ColumnStoreEngine> engine;
};

CycleEngine NewEngine(Hal* hal) {
  CycleEngine e;
  e.cache = std::make_unique<sched::ResultCache>(kResultCacheBytes);
  ColumnStoreEngine::Options options;
  options.num_threads = 1;
  options.sequential_pipe = true;
  options.hal = hal;
  options.result_cache = e.cache.get();
  options.pager_budget_bytes = kPagerBudget;
  options.segment_target_bytes = kSegmentBytes;
  e.engine = std::make_unique<ColumnStoreEngine>(options);
  auto table = std::make_unique<Table>(kTable);
  Status st = table->AddColumn(
      kColumn, std::make_unique<Bat>(ValueType::kString, e.engine->allocator()));
  if (st.ok()) st = e.engine->catalog()->AddTable(std::move(table));
  if (st.ok()) st = e.engine->CreateSegmentedColumn(kSegTable, kColumn);
  if (!st.ok()) Die("engine: " + st.ToString());
  return e;
}

std::unique_ptr<Hal> NewHal() {
  Hal::Options options;
  options.shared_memory_bytes = int64_t{512} << 20;
  options.functional_threads = kFunctionalThreads;
  options.num_devices = 1;
  return std::make_unique<Hal>(options);
}

std::vector<std::string> GenerateRows(uint64_t seed) {
  AddressDataOptions data;
  data.num_records = kRows;
  data.seed = seed;
  auto table = GenerateAddressTable(data, "generated");
  if (!table.ok()) Die("data generation: " + table.status().ToString());
  return ColumnStrings(*(*table)->GetColumn("address_string"));
}

struct Oracles {
  std::vector<std::vector<uint8_t>> segment;  // per kSegmentQueries entry
  std::vector<uint8_t> hybrid;                // QH
};

struct Samples {
  std::vector<double> latency, device, seg_scan, resident_scan, store_append,
      db_append, append_rate, page_in_virtual;
  int64_t resident_bytes_max = 0;
};

// The resident leg returns the matching strings themselves, so the result
// is checked row for row (the table has no id column to select).
std::string ResidentSql() {
  return std::string("SELECT ") + kColumn + " FROM " + kTable +
         " WHERE REGEXP_HYBRID('" + QueryPattern(EvalQuery::kQH) + "', " +
         kColumn + ") <> 0;";
}

// One round: appends, then two segmented scans and one resident scan, each
// checked against the oracle. A failed append ends the run.
void RunRound(CycleEngine* e, const std::vector<std::string>& rows,
              const Oracles& oracles, int round, const std::string& sql,
              SpanLog* spans, ReplaySamples* replay, int64_t* query_id,
              Samples* s, Report* report) {
  ColumnStoreEngine* engine = e->engine.get();
  const auto first = rows.begin() + round * kBatchRows;
  const std::vector<std::string> batch(first, first + kBatchRows);

  // Appends.
  double t0 = NowSeconds();
  const int seg_append =
      spans != nullptr
          ? spans->Begin("store.append", SpanLog::kNoParent, *query_id)
          : -1;
  auto seg = engine->AppendToSegmented(kSegTable, kColumn, batch);
  if (spans != nullptr) spans->End(seg_append);
  double t1 = NowSeconds();
  const int col_append =
      spans != nullptr
          ? spans->Begin("db.append", SpanLog::kNoParent, *query_id)
          : -1;
  auto col = engine->AppendToColumn(kTable, kColumn, batch);
  if (spans != nullptr) spans->End(col_append);
  double t2 = NowSeconds();
  report->CountOperation(seg.ok());
  report->CountOperation(col.ok());
  if (!seg.ok() || !col.ok()) {
    Die("append failed: " + (seg.ok() ? col.status() : seg.status()).ToString());
  }
  s->store_append.push_back(t1 - t0);
  s->db_append.push_back(t2 - t1);
  s->append_rate.push_back(2 * kBatchRows / (t2 - t0));

  // Segmented scans over the sealed snapshot; its rows are a prefix of the
  // resident column's, so the oracle prefix checks them row for row.
  for (int k = 0; k < kSegmentScansPerRound; ++k) {
    const size_t qi =
        static_cast<size_t>(round * kSegmentScansPerRound + k) % 4;
    StringFilterSpec spec;
    spec.op = StringFilterSpec::Op::kRegexpFpga;
    spec.pattern = QueryPattern(kSegmentQueries[qi]);
    QueryStats stats;
    const int scan_span =
        spans != nullptr
            ? spans->Begin("store.scan", SpanLog::kNoParent, *query_id)
            : -1;
    t0 = NowSeconds();
    auto bits = engine->EvalSegmentedFilter(kSegTable, kColumn, spec, &stats);
    t1 = NowSeconds();
    if (spans != nullptr) spans->End(scan_span);
    report->CountOperation(
        bits.ok(), bits.ok() && std::equal(bits->begin(), bits->end(),
                                           oracles.segment[qi].begin()));
    if (bits.ok()) {
      s->latency.push_back(t1 - t0);
      s->seg_scan.push_back(t1 - t0);
      s->device.push_back(stats.hw_seconds + stats.page_in_seconds);
      s->page_in_virtual.push_back(stats.page_in_seconds);
    }
    s->resident_bytes_max = std::max(
        s->resident_bytes_max, GaugeValue("doppio.store.resident_bytes"));
    ++*query_id;
  }

  // Resident REGEXP_HYBRID query: the matching strings, row for row.
  const Bat& column =
      *engine->catalog()->GetTable(kTable)->GetColumn(kColumn);
  std::vector<std::string> expected;
  for (int64_t i = 0; i < column.count(); ++i) {
    if (oracles.hybrid[static_cast<size_t>(i)] != 0) {
      expected.push_back(rows[static_cast<size_t>(i)]);
    }
  }
  ReplayQuery rq;
  rq.sql = sql;
  rq.pattern = QueryPattern(EvalQuery::kQH);
  rq.expected = oracles.hybrid.data();
  rq.check_outcome = [&expected](const sql::QueryOutcome& outcome) {
    return outcome.result.num_columns() == 1 &&
           outcome.result.columns[0].strings == expected;
  };
  if (spans != nullptr) {
    ReplayEngineQuery(engine, column, rq, e->cache.get(), (*query_id)++, spans,
                      replay, report);
    return;
  }
  t0 = NowSeconds();
  auto outcome = sql::ExecuteQuery(engine, sql);
  t1 = NowSeconds();
  report->CountOperation(outcome.ok(),
                         outcome.ok() && rq.check_outcome(*outcome));
  if (outcome.ok()) {
    s->latency.push_back(t1 - t0);
    s->resident_scan.push_back(t1 - t0);
    s->device.push_back(outcome->stats.hw_seconds +
                        outcome->stats.page_in_seconds);
  }
  ++*query_id;
}

Oracles ComputeOracles(const std::vector<std::string>& rows) {
  Oracles o;
  for (EvalQuery q : kSegmentQueries) {
    o.segment.push_back(OracleMatches(rows, QueryPattern(q)));
  }
  o.hybrid = OracleMatches(rows, QueryPattern(EvalQuery::kQH));
  return o;
}

// Runs whole cycles until `budget` seconds have passed.
void RunCycles(Hal* hal, const std::vector<std::string>& rows,
               const Oracles& oracles, double budget, SpanLog* spans,
               ReplaySamples* replay, Samples* s, Report* report) {
  const std::string sql = ResidentSql();
  int64_t query_id = 0;
  const double start = NowSeconds();
  do {
    CycleEngine e = NewEngine(hal);
    for (int round = 0; round < kRounds; ++round) {
      RunRound(&e, rows, oracles, round, sql, spans, replay, &query_id, s,
               report);
    }
  } while (NowSeconds() - start < budget);
}

}  // namespace

void RunIngestScan(const RunConfig& config, Report* report) {
  report->Provenance("rows_per_cycle", std::to_string(kRows));
  report->Provenance("batch_rows", std::to_string(kBatchRows));
  report->Provenance("segment_target_bytes", std::to_string(kSegmentBytes));
  report->Provenance("pager_budget_bytes", std::to_string(kPagerBudget));
  report->Provenance("result_cache", "engine-attached (64 MiB)");
  report->Provenance("devices", "1");
  report->Provenance("hal_functional_threads",
                     std::to_string(kFunctionalThreads));
  report->Provenance("engine_partitions", "1 (sequential_pipe)");
  report->Provenance("client_threads", std::to_string(kClientThreads));
  report->Provenance("scheduler_cpu_threads", "0 (no scheduler)");

  // Set-up: HAL construction, data generation and one warm-up round on a
  // throwaway engine; repeated, median reported.
  std::vector<double> setup_seconds;
  std::unique_ptr<Hal> hal;
  std::vector<std::string> rows;
  const std::string sql = ResidentSql();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    hal.reset();
    const double start = NowSeconds();
    hal = NewHal();
    rows = GenerateRows(config.seed);
    {
      CycleEngine e = NewEngine(hal.get());
      const std::vector<std::string> batch(rows.begin(),
                                           rows.begin() + kBatchRows);
      auto seg = e.engine->AppendToSegmented(kSegTable, kColumn, batch, true);
      auto col = e.engine->AppendToColumn(kTable, kColumn, batch);
      if (!seg.ok() || !col.ok()) Die("warm-up append failed");
      StringFilterSpec spec;
      spec.op = StringFilterSpec::Op::kRegexpFpga;
      spec.pattern = QueryPattern(EvalQuery::kQ1);
      auto bits = e.engine->EvalSegmentedFilter(kSegTable, kColumn, spec, nullptr);
      auto outcome = sql::ExecuteQuery(e.engine.get(), sql);
      if (!bits.ok() || !outcome.ok()) Die("warm-up scan failed");
    }
    setup_seconds.push_back(NowSeconds() - start);
  }
  const Oracles oracles = ComputeOracles(rows);

  const double untraced_budget =
      config.trace ? config.seconds / 3 : config.seconds;
  Samples untraced;
  RunCycles(hal.get(), rows, oracles, untraced_budget, nullptr, nullptr,
            &untraced, report);

  if (!config.trace) {
    report->EndToEnd("query_p50_ms", Quantile(untraced.latency, 0.5) * 1e3,
                     "ms", Clock::kHost);
    report->EndToEnd("query_p90_ms", Quantile(untraced.latency, 0.9) * 1e3,
                     "ms", Clock::kHost);
    double busy = 0;
    for (double l : untraced.latency) busy += l;
    report->EndToEnd("throughput_qps",
                     static_cast<double>(untraced.latency.size()) / busy,
                     "1/s", Clock::kHost);
    report->EndToEnd("device_ms_p50", Quantile(untraced.device, 0.5) * 1e3,
                     "ms", Clock::kVirtual);
    report->EndToEnd("setup_s", Quantile(setup_seconds, 0.5), "s",
                     Clock::kHost);
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB", Clock::kHost);
    report->Extra("timed_queries", static_cast<double>(untraced.latency.size()),
                  "count", Clock::kNone);
    report->Extra("segmented_scan_p50_ms",
                  Quantile(untraced.seg_scan, 0.5) * 1e3, "ms", Clock::kHost);
    report->Extra("resident_scan_p50_ms",
                  Quantile(untraced.resident_scan, 0.5) * 1e3, "ms",
                  Clock::kHost);
    return;
  }

  SpanLog spans;
  ReplaySamples replay;
  Samples s;
  const int64_t jobs_before = CounterValue("doppio.device.jobs_submitted");
  const int64_t retries_before = CounterValue("doppio.lifecycle.retries");
  const int64_t page_ins = CounterValue("doppio.store.page_ins");
  const int64_t page_in_bytes = CounterValue("doppio.store.page_in_bytes");
  const int64_t windows = CounterValue("doppio.store.windows_streamed");
  const int64_t window_hits = CounterValue("doppio.store.window_cache_hits");
  const int64_t rc_hits = CounterValue("doppio.sched.result_cache.hits");
  const int64_t rc_misses = CounterValue("doppio.sched.result_cache.misses");
  const int64_t rc_partial =
      CounterValue("doppio.sched.result_cache.partial_hits");
  const int64_t rc_saved = CounterValue("doppio.sched.result_cache.bytes_saved");
  RunCycles(hal.get(), rows, oracles, config.seconds - untraced_budget, &spans,
            &replay, &s, report);

  ReportReplayLayers(replay, jobs_before, retries_before, report);
  // Median over rounds of the rows both appends took in per second.
  report->Layer("db.ingest_rows_per_s", Quantile(s.append_rate, 0.5),
                "rows/s", Clock::kHost);
  report->Layer("db.append_ms", Quantile(s.db_append, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("store.append_us", Quantile(s.store_append, 0.5) * 1e6, "us",
                Clock::kHost);
  report->Layer("store.scan_ms", Quantile(s.seg_scan, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("store.page_ins",
                static_cast<double>(CounterValue("doppio.store.page_ins") -
                                    page_ins),
                "count", Clock::kNone);
  report->Layer("store.page_in_bytes",
                static_cast<double>(CounterValue("doppio.store.page_in_bytes") -
                                    page_in_bytes),
                "bytes", Clock::kNone);
  const int64_t streamed = CounterValue("doppio.store.windows_streamed") - windows;
  const int64_t hits = CounterValue("doppio.store.window_cache_hits") - window_hits;
  report->Layer("store.windows_streamed", static_cast<double>(streamed),
                "count", Clock::kNone);
  report->Layer("store.window_cache_hit_ratio",
                streamed + hits > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(streamed + hits)
                                    : 0,
                "ratio", Clock::kNone);
  report->Layer("store.window_lookups", static_cast<double>(streamed + hits),
                "count", Clock::kNone);
  double page_in_virtual = 0;
  for (double p : s.page_in_virtual) page_in_virtual += p;
  report->Layer("store.page_in_virtual_ms", page_in_virtual * 1e3, "ms",
                Clock::kVirtual);
  report->Layer("store.resident_bytes_max",
                static_cast<double>(s.resident_bytes_max), "bytes",
                Clock::kNone);
  const int64_t rc_hit_delta =
      CounterValue("doppio.sched.result_cache.hits") - rc_hits;
  const int64_t rc_lookups =
      rc_hit_delta + CounterValue("doppio.sched.result_cache.misses") - rc_misses;
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
  report->Layer("bench.reconcile_error",
                replay.query_total > 0
                    ? std::abs(replay.stage_total - replay.query_total) /
                          replay.query_total
                    : 0,
                "ratio", Clock::kHost);
  report->Layer("bench.trace_overhead_ratio",
                Quantile(replay.query, 0.5) /
                    Quantile(untraced.resident_scan, 0.5),
                "ratio", Clock::kHost);
  report->Layer("bench.traced_queries",
                static_cast<double>(replay.query.size() + s.seg_scan.size()),
                "count", Clock::kNone);
  report->SetSpansJson(spans.ToJson());
}

}  // namespace perfbench
