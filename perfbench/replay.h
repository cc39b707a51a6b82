// Traced replay of one REGEXP_HYBRID SQL query over a resident column.
//
// The query runs once for real (the `query` span, through
// sql::ExecuteQuery); then each layer's public function is called on its
// own, in the order the engine calls them:
//
//   query                 sql::ExecuteQuery
//   ├─ sql.parse          sql::ParseSelect
//   └─ db.filter          ColumnStoreEngine::EvalStringFilter
//      └─ hybrid.call     ExecuteHybrid
//         ├─ hw.config_gen      CompileRegexConfig   (the device-side prefix)
//         └─ hudf.call          RegexpFpga           (the pre-filter job)
//            └─ hw.program_compile  CompiledPuProgram::Compile
//   host.backend          RegexpHost (side measurement, off the path)
//
// db.materialize = query − parse − filter, and the stage sum that
// bench.reconcile_error compares with the query's wall time is
// parse + config_gen + hudf + hybrid post-process + materialize. The
// gap is time inside db.filter that no replayed layer accounts for (the
// engine's result-to-bitmap pass) plus the run-to-run difference between
// the real call and its replay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "db/column_store.h"
#include "sched/result_cache.h"
#include "sql/executor.h"

namespace perfbench {

struct ReplayQuery {
  std::string sql;
  std::string pattern;
  /// Oracle bytes for at least the column's current rows.
  const uint8_t* expected = nullptr;
  /// Checks the ExecuteQuery outcome row for row.
  std::function<bool(const doppio::sql::QueryOutcome&)> check_outcome;
};

struct ReplaySamples {
  std::vector<double> query, parse, filter, materialize, config_gen,
      program_compile, hudf, hal, device, host, hybrid, postprocess;
  double functional_bytes = 0;
  double functional_seconds = 0;
  double sim_host_seconds = 0;
  double hudf_total = 0;
  double host_total = 0;
  double query_total = 0;
  double stage_total = 0;
  KernelCounts kernels;
};

/// Replays one query (see the file comment), checks every layer's result
/// against the oracle and counts each call as one operation in `report`.
/// `cache` is the engine's result cache, if any: it is invalidated for the
/// column before each replayed call that consults it, so every call meets
/// the cold state the real query met.
void ReplayEngineQuery(doppio::ColumnStoreEngine* engine,
                       const doppio::Bat& column, const ReplayQuery& q,
                       doppio::sched::ResultCache* cache, int64_t query_id,
                       SpanLog* spans, ReplaySamples* samples, Report* report);

/// Adds the per-layer metrics the replay measures, plus the HAL job and
/// retry counts since `jobs_before` / `retries_before`.
void ReportReplayLayers(const ReplaySamples& s, int64_t jobs_before,
                        int64_t retries_before, Report* report);

/// Whether a kInt16 match column agrees with the oracle on every row.
bool MatchesOracle(const doppio::Bat& result, const uint8_t* expected);

}  // namespace perfbench
