// Device-topology test suite (ROADMAP item: multi-device pool).
//
// Locks down the DevicePool contract: a pool of one is bit- and
// byte-identical to the historical single-device path; sharded placement
// is deterministic; work stealing drains a healthy pool around a
// fault-stalled member; metrics and traces attribute per device; and the
// job lifecycle derives deadlines from a job's OWN device — never from an
// unrelated clock domain.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "db/hudf.h"
#include "hal/job_lifecycle.h"
#include "hw/config_compiler.h"
#include "hw/device_pool.h"
#include "hw/fault_plan.h"
#include "mem/arena.h"
#include "obs/tracer.h"
#include "regex/dfa_matcher.h"

namespace doppio {
namespace {

Hal::Options PoolHal(int num_devices) {
  Hal::Options options;
  options.shared_memory_bytes = 256 * kSharedPageBytes;
  options.functional_threads = 1;
  options.num_devices = num_devices;
  return options;
}

/// A mixed-content input BAT in `hal`'s shared region. Deterministic, so
/// two HALs loaded with the same (rows, salt) hold identical data.
void FillInput(Hal* hal, Bat* input, int rows, int salt = 0) {
  for (int i = 0; i < rows; ++i) {
    switch ((i + salt) % 4) {
      case 0:
        ASSERT_TRUE(input->AppendString("7 Berner Strasse|61234").ok());
        break;
      case 1:
        ASSERT_TRUE(input->AppendString("12 Berner Gasse|61234").ok());
        break;
      case 2:
        ASSERT_TRUE(input->AppendString("1 Haupt Strasse|99999").ok());
        break;
      default:
        ASSERT_TRUE(input->AppendString("no address at all").ok());
        break;
    }
  }
  (void)hal;
}

std::vector<bool> GroundTruth(const Bat& input, const std::string& pattern) {
  auto dfa = DfaMatcher::Compile(pattern);
  EXPECT_TRUE(dfa.ok());
  std::vector<bool> expected;
  expected.reserve(static_cast<size_t>(input.count()));
  for (int64_t i = 0; i < input.count(); ++i) {
    expected.push_back((*dfa)->Matches(input.GetString(i)));
  }
  return expected;
}

// ---------------------------------------------------------------------
// ShardCounts: deterministic largest-remainder placement.
// ---------------------------------------------------------------------

TEST(DevicePoolTest, ShardCountsProportionalToFreeEngines) {
  DevicePoolOptions options;
  options.num_devices = 4;  // 4 devices x 4 engines
  DevicePool pool(options);
  EXPECT_EQ(pool.total_engines(), 16);

  // All idle: equal weights, leftovers to the lowest indices.
  EXPECT_EQ(pool.ShardCounts(10), (std::vector<int>{3, 3, 2, 2}));
  EXPECT_EQ(pool.ShardCounts(16), (std::vector<int>{4, 4, 4, 4}));
  EXPECT_EQ(pool.ShardCounts(0), (std::vector<int>{0, 0, 0, 0}));

  // Device 0 fully occupied: its share goes to the others.
  pool.NoteInflight(0, 4);
  EXPECT_EQ(pool.free_engines(0), 0);
  EXPECT_EQ(pool.ShardCounts(10), (std::vector<int>{0, 4, 3, 3}));

  // Whole pool busy: equal-weight fallback, nobody starved of backlog.
  pool.NoteInflight(1, 4);
  pool.NoteInflight(2, 4);
  pool.NoteInflight(3, 4);
  EXPECT_EQ(pool.ShardCounts(10), (std::vector<int>{3, 3, 2, 2}));

  // Deterministic: same state, same answer.
  EXPECT_EQ(pool.ShardCounts(10), pool.ShardCounts(10));
}

TEST(DevicePoolTest, HeterogeneousEngineTopology) {
  DevicePoolOptions options;
  options.num_devices = 2;
  options.device_engines = {2, 1};
  DevicePool pool(options);
  EXPECT_EQ(pool.device(0)->config().num_engines, 2);
  EXPECT_EQ(pool.device(1)->config().num_engines, 1);
  EXPECT_EQ(pool.total_engines(), 3);
  EXPECT_EQ(pool.ShardCounts(3), (std::vector<int>{2, 1}));
}

// ---------------------------------------------------------------------
// N=1 invariant: the pooled executor IS the single-device executor.
// ---------------------------------------------------------------------

TEST(DevicePoolTest, PoolOfOneIsBitIdenticalToDirectSubmit) {
  const int kRows = 3000;
  const char* kPattern = "Strasse";

  // Two independently-built single-device systems running the same query:
  // one through the historical partitioned path, one through the pooled
  // entry. Everything observable must match exactly — results, stats,
  // virtual timing, and the device clock itself.
  Hal direct(PoolHal(1));
  Bat direct_input(ValueType::kString, direct.bat_allocator());
  FillInput(&direct, &direct_input, kRows);
  auto direct_config = direct.CompileConfig(kPattern);
  ASSERT_TRUE(direct_config.ok());
  auto direct_out =
      RegexpFpgaPartitioned(&direct, direct_input, *direct_config);
  ASSERT_TRUE(direct_out.ok()) << direct_out.status().ToString();

  Hal pooled(PoolHal(1));
  ASSERT_EQ(pooled.pool()->size(), 1);
  Bat pooled_input(ValueType::kString, pooled.bat_allocator());
  FillInput(&pooled, &pooled_input, kRows);
  auto pooled_config = pooled.CompileConfig(kPattern);
  ASSERT_TRUE(pooled_config.ok());
  auto pooled_out =
      RegexpFpgaPartitioned(&pooled, pooled_input, *pooled_config);
  ASSERT_TRUE(pooled_out.ok()) << pooled_out.status().ToString();

  // Result column: byte-identical.
  ASSERT_EQ(direct_out->result->count(), pooled_out->result->count());
  EXPECT_EQ(std::memcmp(direct_out->result->tail_data(),
                        pooled_out->result->tail_data(),
                        static_cast<size_t>(kRows) * 2),
            0);
  // Stats: identical down to the virtual-time doubles.
  EXPECT_EQ(direct_out->stats.rows_scanned, pooled_out->stats.rows_scanned);
  EXPECT_EQ(direct_out->stats.rows_matched, pooled_out->stats.rows_matched);
  EXPECT_EQ(direct_out->stats.hw_seconds, pooled_out->stats.hw_seconds);
  EXPECT_EQ(direct_out->stats.job_retries, pooled_out->stats.job_retries);
  EXPECT_EQ(direct_out->stats.fallback_rows, pooled_out->stats.fallback_rows);
  EXPECT_EQ(direct_out->stats.strategy, pooled_out->stats.strategy);
  EXPECT_EQ(direct_out->stats.pu_kernel, pooled_out->stats.pu_kernel);
  // The virtual clock consumed exactly the same picoseconds.
  EXPECT_EQ(direct.device()->now(), pooled.device()->now());
  EXPECT_EQ(pooled.pool()->MaxNow(), pooled.device()->now());
}

TEST(DevicePoolTest, PoolOfOneEquivalenceHoldsUnderFaults) {
  FaultPlan faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.drop_rate = 0.25;
  faults.submit_failure_rate = 0.1;

  Hal::Options options = PoolHal(1);
  options.device.faults = faults;
  Hal direct(options);
  Bat direct_input(ValueType::kString, direct.bat_allocator());
  FillInput(&direct, &direct_input, 2000);
  auto config_a = direct.CompileConfig("Gasse");
  ASSERT_TRUE(config_a.ok());
  auto direct_out = RegexpFpgaPartitioned(&direct, direct_input, *config_a);
  ASSERT_TRUE(direct_out.ok());

  Hal pooled(options);
  Bat pooled_input(ValueType::kString, pooled.bat_allocator());
  FillInput(&pooled, &pooled_input, 2000);
  auto config_b = pooled.CompileConfig("Gasse");
  ASSERT_TRUE(config_b.ok());
  auto pooled_out =
      RegexpFpgaPartitioned(&pooled, pooled_input, *config_b);
  ASSERT_TRUE(pooled_out.ok());

  EXPECT_EQ(std::memcmp(direct_out->result->tail_data(),
                        pooled_out->result->tail_data(), 2000 * 2),
            0);
  EXPECT_EQ(direct_out->stats.hw_seconds, pooled_out->stats.hw_seconds);
  EXPECT_EQ(direct_out->stats.job_retries, pooled_out->stats.job_retries);
  EXPECT_EQ(direct_out->stats.fallback_rows, pooled_out->stats.fallback_rows);
  EXPECT_EQ(direct.device()->now(), pooled.device()->now());
}

// ---------------------------------------------------------------------
// Sharded execution: determinism, correctness, attribution.
// ---------------------------------------------------------------------

/// Per-device (slices, rows) executed during `fn`, as metric deltas (the
/// registry is process-global and cumulative).
template <typename Fn>
std::vector<std::pair<int64_t, int64_t>> SliceDeltas(DevicePool* pool,
                                                     Fn&& fn) {
  std::vector<std::pair<int64_t, int64_t>> before;
  for (int i = 0; i < pool->size(); ++i) {
    before.emplace_back(pool->slices_executed(i), pool->rows_executed(i));
  }
  fn();
  std::vector<std::pair<int64_t, int64_t>> delta;
  for (int i = 0; i < pool->size(); ++i) {
    delta.emplace_back(pool->slices_executed(i) - before[i].first,
                       pool->rows_executed(i) - before[i].second);
  }
  return delta;
}

TEST(DevicePoolTest, ShardPlacementIsDeterministic) {
  const int kRows = 4000;
  auto run_once = [&]() {
    Hal hal(PoolHal(3));
    Bat input(ValueType::kString, hal.bat_allocator());
    FillInput(&hal, &input, kRows);
    auto config = hal.CompileConfig("Strasse");
    EXPECT_TRUE(config.ok());
    std::vector<std::pair<int64_t, int64_t>> deltas =
        SliceDeltas(hal.pool(), [&]() {
          auto out = RegexpFpgaPartitioned(&hal, input, *config);
          EXPECT_TRUE(out.ok());
          EXPECT_EQ(out->stats.rows_scanned, kRows);
        });
    return deltas;
  };
  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(first, second);
  // Every device took part, and the whole input was covered exactly once.
  int64_t total_rows = 0;
  for (const auto& [slices, rows] : first) {
    EXPECT_GT(slices, 0);
    total_rows += rows;
  }
  EXPECT_EQ(total_rows, kRows);
}

TEST(DevicePoolTest, ShardedResultsMatchSingleDeviceBytes) {
  const int kRows = 5000;
  const char* kPattern = "Berner";

  Hal single(PoolHal(1));
  Bat single_input(ValueType::kString, single.bat_allocator());
  FillInput(&single, &single_input, kRows);
  auto config_a = single.CompileConfig(kPattern);
  ASSERT_TRUE(config_a.ok());
  auto single_out = RegexpFpgaPartitioned(&single, single_input, *config_a);
  ASSERT_TRUE(single_out.ok());

  for (int devices : {2, 4}) {
    Hal pooled(PoolHal(devices));
    Bat input(ValueType::kString, pooled.bat_allocator());
    FillInput(&pooled, &input, kRows);
    auto config = pooled.CompileConfig(kPattern);
    ASSERT_TRUE(config.ok());
    auto out = RegexpFpgaPartitioned(&pooled, input, *config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(std::memcmp(single_out->result->tail_data(),
                          out->result->tail_data(),
                          static_cast<size_t>(kRows) * 2),
              0)
        << devices << " devices";
    EXPECT_EQ(out->stats.rows_matched, single_out->stats.rows_matched);
  }
}

TEST(DevicePoolTest, WorkStealingDrainsAroundAStalledDevice) {
  // Device 1's engines all hang forever on their first job; device 0 is
  // healthy. The pool must still produce oracle-correct results: device
  // 1's in-flight slices degrade to software, and its queued backlog is
  // stolen and executed by device 0.
  FaultPlan stalled;
  stalled.enabled = true;
  stalled.stalled_engine_mask = 0xF;  // all 4 engines

  Hal::Options options = PoolHal(2);
  options.device_faults = {FaultPlan{}, stalled};
  Hal hal(options);

  const int kRows = 4000;
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&hal, &input, kRows);
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  const int64_t steals_in_before = hal.pool()->steals_in(0);
  const int64_t steals_out_before = hal.pool()->steals_out(1);
  // 16 partitions: 8 land on each device, 4 stall in flight on device 1,
  // the rest of its backlog is stealable.
  auto out = RegexpFpgaPartitioned(&hal, input, *config, 16);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_GT(hal.pool()->steals_in(0) - steals_in_before, 0);
  EXPECT_GT(hal.pool()->steals_out(1) - steals_out_before, 0);
  EXPECT_GT(out->stats.fallback_rows, 0);  // device 1's stalled slices
  EXPECT_EQ(out->stats.strategy, "fpga+sw_fallback");

  std::vector<bool> expected = GroundTruth(input, "Strasse");
  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ(out->result->GetInt16(i) != 0, expected[static_cast<size_t>(i)])
        << "row " << i;
  }
}

TEST(DevicePoolTest, PerDeviceMetricAndTraceAttribution) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(true);

  Hal hal(PoolHal(2));
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&hal, &input, 3000);
  auto config = hal.CompileConfig("Gasse");
  ASSERT_TRUE(config.ok());
  std::vector<std::pair<int64_t, int64_t>> deltas =
      SliceDeltas(hal.pool(), [&]() {
        auto out = RegexpFpgaPartitioned(&hal, input, *config);
        ASSERT_TRUE(out.ok());
      });
  tracer.SetEnabled(false);

  // Both devices executed slices and the rows they covered are disjoint
  // and complete.
  EXPECT_GT(deltas[0].first, 0);
  EXPECT_GT(deltas[1].first, 0);
  EXPECT_EQ(deltas[0].second + deltas[1].second, 3000);

  // The trace carries per-device attribution: job spans on member 1 are
  // tagged with its device id (and live on its own track stride).
  std::string trace = tracer.ToChromeTraceJson();
  EXPECT_NE(trace.find("\"device\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"device\":0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Clock-domain audit regressions.
// ---------------------------------------------------------------------

TEST(DevicePoolTest, HwSecondsComputedPerClockDomain) {
  // Regression for the latent single-clock assumption in the batch
  // executor: device clocks are independent, so a query's hardware time
  // must never be a difference of stamps from two different domains.
  // Diverge the clocks by a full virtual second; a correct per-domain
  // reduction is unaffected.
  Hal hal(PoolHal(2));
  hal.pool()->device(0)->AdvanceVirtualTime(PicosFromSeconds(1.0));

  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&hal, &input, 3000);
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto out = RegexpFpgaPartitioned(&hal, input, *config);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->stats.hw_seconds, 0.0);
  // A cross-domain subtraction would report ~1 s here.
  EXPECT_LT(out->stats.hw_seconds, 0.5);
}

TEST(DevicePoolTest, DeadlineBudgetComesFromTheJobsOwnDevice) {
  // Heterogeneous pool: device 0 has 4 engines, device 1 has 1. The
  // deadline budget scales with the owning device's engine count, even
  // when the await call is handed a different device as its resubmission
  // target (the audit fix in AwaitJobWithRecovery).
  DevicePoolOptions options;
  options.num_devices = 2;
  options.device_engines = {4, 1};
  DevicePool pool(options);

  // Large enough that the perf-model estimate clears the policy's 500 us
  // deadline floor on the 1-engine device (budget = estimate x slack).
  Bat input(ValueType::kString);  // arena-less pool skips validation
  for (int i = 0; i < 60000; ++i) {
    ASSERT_TRUE(
        input.AppendString(i % 3 == 0 ? "7 Berner Strasse|61234" : "x").ok());
  }
  auto config = CompileRegexConfig("Strasse", pool.device(0)->config());
  ASSERT_TRUE(config.ok());
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(input.count()).ok());

  JobParams params;
  params.offsets = input.tail_data();
  params.heap = input.heap()->data();
  params.result = result.mutable_tail_data();
  params.count = input.count();
  params.offset_width = static_cast<int32_t>(input.offset_width());
  params.heap_bytes = input.heap()->size_bytes();
  params.program = config->program;
  params.timing_only = true;  // budgets depend on sizes, not results

  RetryPolicy policy;
  // The two topologies genuinely budget differently (4 engines share one
  // QPI link, so each concurrent job is modeled slower than a lone job).
  const SimTime wide_budget =
      JobDeadlineBudget(pool.device(0)->config(), params.count,
                        params.heap_bytes, policy, 4);
  const SimTime narrow_budget =
      JobDeadlineBudget(pool.device(1)->config(), params.count,
                        params.heap_bytes, policy, 1);
  ASSERT_NE(wide_budget, narrow_budget);

  FpgaJob wide;
  JobOutcome on_wide = RunJobWithRetry(pool.device(0), params, policy, &wide);
  ASSERT_TRUE(on_wide.ok);
  EXPECT_EQ(on_wide.deadline_budget, wide_budget);

  // Submit on the 1-engine device but pass the 4-engine device as the
  // await's resubmission target: the budget must still be the OWNER's.
  JobOutcome on_narrow;
  Result<FpgaJob> narrow =
      SubmitJobWithRetry(pool.device(1), params, policy, &on_narrow);
  ASSERT_TRUE(narrow.ok());
  FpgaJob narrow_job = *narrow;
  ASSERT_TRUE(AwaitJobWithRecovery(pool.device(0), &narrow_job, params,
                                   policy, &on_narrow)
                  .ok());
  EXPECT_EQ(narrow_job.device(), pool.device(1));
  EXPECT_EQ(on_narrow.deadline_budget, narrow_budget);
}

// ---------------------------------------------------------------------
// Conformance saturation cases through real pools (match-index semantics
// across sharding boundaries).
// ---------------------------------------------------------------------

TEST(DevicePoolTest, SaturationRowsSurviveShardingBoundaries) {
  // The hardware result lane is 16 bits: positions up to 65535 report
  // exactly, beyond saturates at 65535 (see pu_kernel_test and
  // simd_backend_test for the single-PU cases). The same row must report
  // the same lane value no matter which device or slice it lands on.
  for (int devices : {2, 4}) {
    Hal hal(PoolHal(devices));
    Bat input(ValueType::kString, hal.bat_allocator());
    const std::string tail = "Strasse";
    for (size_t len : {size_t{65534}, size_t{65535}, size_t{65536}}) {
      std::string s(len - tail.size(), 'x');
      s += tail;  // match ends exactly at the row's length
      ASSERT_TRUE(input.AppendString(s).ok());
    }
    // Padding rows so the saturation rows cross slice boundaries.
    FillInput(&hal, &input, 61);
    auto config = hal.CompileConfig("Strasse");
    ASSERT_TRUE(config.ok());
    auto out = RegexpFpgaPartitioned(&hal, input, *config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const uint16_t expected_lane[] = {65534, 65535, 65535};
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(static_cast<uint16_t>(out->result->GetInt16(i)),
                expected_lane[i])
          << devices << " devices, row " << i;
    }
    std::vector<bool> expected = GroundTruth(input, "Strasse");
    for (int64_t i = 0; i < input.count(); ++i) {
      EXPECT_EQ(out->result->GetInt16(i) != 0,
                expected[static_cast<size_t>(i)]);
    }
  }
}

TEST(DevicePoolTest, SetCompiledSaturationSurvivesShardingBoundaries) {
  // Same invariant for a set-compiled program: every output stream
  // saturates its 16-bit lane independently (65534 exact, 65535 exact,
  // 65536 saturated), and a row reports the same per-stream values no
  // matter which device or slice it lands on — including the 1-device
  // pool, which takes the historical single-device path.
  for (int devices : {1, 2, 4}) {
    Hal hal(PoolHal(devices));
    Bat input(ValueType::kString, hal.bat_allocator());
    const std::string tails[2] = {"Strasse", "Gasse"};
    for (size_t len : {size_t{65534}, size_t{65535}, size_t{65536}}) {
      for (const std::string& tail : tails) {
        std::string s(len - tail.size(), 'x');
        s += tail;  // the stream's match ends exactly at the row's length
        ASSERT_TRUE(input.AppendString(s).ok());
      }
    }
    // Padding rows so the saturation rows cross slice boundaries.
    FillInput(&hal, &input, 61);

    auto strasse = hal.CompileConfig("Strasse");
    auto gasse = hal.CompileConfig("Gasse");
    ASSERT_TRUE(strasse.ok());
    ASSERT_TRUE(gasse.ok());
    auto set = CompileRegexSetConfig({&strasse->nfa, &gasse->nfa},
                                     hal.device_config());
    ASSERT_TRUE(set.ok()) << set.status().ToString();

    FpgaBatchQuery query;
    query.input = &input;
    query.config = &*set;
    query.streams = 2;
    std::vector<FpgaBatchQuery*> batch{&query};
    Status st = RegexpFpgaBatch(&hal, batch);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(query.set_outputs.size(), 2u);
    EXPECT_EQ(query.out.stats.strategy, "fpga-set");

    // Rows 2r end in Strasse (stream 0), rows 2r+1 in Gasse (stream 1);
    // the other stream must stay silent on those rows.
    const uint16_t expected_lane[] = {65534, 65535, 65535};
    for (int64_t r = 0; r < 3; ++r) {
      const Bat& s0 = *query.set_outputs[0].result;
      const Bat& s1 = *query.set_outputs[1].result;
      EXPECT_EQ(static_cast<uint16_t>(s0.GetInt16(2 * r)), expected_lane[r])
          << devices << " devices, row " << 2 * r;
      EXPECT_EQ(static_cast<uint16_t>(s1.GetInt16(2 * r + 1)),
                expected_lane[r])
          << devices << " devices, row " << 2 * r + 1;
      EXPECT_EQ(s1.GetInt16(2 * r), 0);
      EXPECT_EQ(s0.GetInt16(2 * r + 1), 0);
    }
    // Every stream's full column is bit-identical to scanning its member
    // pattern alone on the same pool.
    for (int p = 0; p < 2; ++p) {
      auto solo = RegexpFpgaPartitioned(&hal, input,
                                              p == 0 ? *strasse : *gasse);
      ASSERT_TRUE(solo.ok()) << solo.status().ToString();
      for (int64_t i = 0; i < input.count(); ++i) {
        EXPECT_EQ(query.set_outputs[static_cast<size_t>(p)].result->GetInt16(i),
                  solo->result->GetInt16(i))
            << devices << " devices, stream " << p << ", row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace doppio
