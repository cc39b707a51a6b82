#include <gtest/gtest.h>

#include "hw/config_compiler.h"
#include "hw/fpga_device.h"
#include "hw/perf_model.h"
#include "hw/qpi_link.h"
#include "hw/resource_model.h"
#include "hw/timing_model.h"
#include "workload/address_generator.h"

namespace doppio {
namespace {

// --- QPI link model -----------------------------------------------------------

TEST(QpiLinkTest, SingleEngineIsWindowLimited) {
  DeviceConfig device;
  QpiLink link(device);
  // Stream 1 GB as one engine in arbitration batches.
  const int64_t lines = (1 << 30) / kCacheLineBytes;
  SimTime now = 0;
  SimTime done = 0;
  int64_t remaining = lines;
  while (remaining > 0) {
    int64_t batch = std::min<int64_t>(remaining, 16);
    done = link.Transfer(0, now, batch);
    now = std::max(now, link.EngineReady(0));
    remaining -= batch;
  }
  double bw = static_cast<double>(lines * kCacheLineBytes) /
              SecondsFromPicos(done);
  // ~5.9 GB/s single engine (the paper's measured effective bandwidth).
  EXPECT_GT(bw, 5.3e9);
  EXPECT_LT(bw, device.qpi_peak_bytes_per_sec);
}

TEST(QpiLinkTest, TwoEnginesSaturateTheLink) {
  DeviceConfig device;
  QpiLink link(device);
  const int64_t lines = (1 << 28) / kCacheLineBytes;
  SimTime now0 = 0;
  SimTime now1 = 0;
  SimTime done = 0;
  int64_t remaining = lines * 2;
  while (remaining > 0) {
    done = std::max(done, link.Transfer(0, now0, 16));
    now0 = std::max(now0, link.EngineReady(0));
    done = std::max(done, link.Transfer(1, now1, 16));
    now1 = std::max(now1, link.EngineReady(1));
    remaining -= 32;
  }
  double bw = static_cast<double>(lines * 2 * kCacheLineBytes) /
              SecondsFromPicos(done);
  EXPECT_NEAR(bw, device.qpi_peak_bytes_per_sec,
              device.qpi_peak_bytes_per_sec * 0.05);
}

TEST(QpiLinkTest, TracksTraffic) {
  DeviceConfig device;
  QpiLink link(device);
  link.Transfer(0, 0, 100);
  EXPECT_EQ(link.total_lines(), 100);
  EXPECT_EQ(link.total_bytes(), 100 * kCacheLineBytes);
  EXPECT_GT(link.busy_time(), 0);
}

// --- Performance model ----------------------------------------------------------

TEST(PerfModelTest, SingleJobBandwidthBound) {
  DeviceConfig device;
  const int64_t count = 2'500'000;
  const int64_t heap = count * 72;
  PerfEstimate est = EstimateJob(device, count, heap, 1);
  // 2.5M 64B-ish strings: ~190 MB of traffic at ~5.9 GB/s → ~32 ms.
  EXPECT_GT(est.seconds, 0.020);
  EXPECT_LT(est.seconds, 0.060);
  EXPECT_LT(est.effective_bytes_per_sec, device.qpi_peak_bytes_per_sec);
}

TEST(PerfModelTest, IdealRemovesQpiCap) {
  DeviceConfig device;
  const int64_t count = 2'500'000;
  const int64_t heap = count * 72;
  PerfEstimate real = EstimateJob(device, count, heap, 1, false);
  PerfEstimate ideal = EstimateJob(device, count, heap, 1, true);
  EXPECT_LT(ideal.seconds, real.seconds);
  // Ideal rate approaches the engine's 6.4 GB/s processing rate.
  EXPECT_GT(ideal.effective_bytes_per_sec, 6.0e9);
}

TEST(PerfModelTest, SaturatedThroughputMatchesFig8Shape) {
  DeviceConfig device;
  const int64_t count = 2'500'000;
  const int64_t heap = count * 72;
  double q1 = SaturatedQueriesPerSec(device, count, heap, 1);
  double q2 = SaturatedQueriesPerSec(device, count, heap, 2);
  double q3 = SaturatedQueriesPerSec(device, count, heap, 3);
  double q4 = SaturatedQueriesPerSec(device, count, heap, 4);
  // Fig. 8: 30.7 → 34.4 → flat. Shape: small gain 1→2, then nothing.
  EXPECT_GT(q2 / q1, 1.05);
  EXPECT_LT(q2 / q1, 1.25);
  EXPECT_NEAR(q3, q2, q2 * 0.02);
  EXPECT_NEAR(q4, q2, q2 * 0.02);
  // Magnitudes in the paper's ballpark.
  EXPECT_GT(q1, 20.0);
  EXPECT_LT(q1, 45.0);
}

TEST(PerfModelTest, ComplexityIndependent) {
  // The model depends only on data volume — any Q1-Q4 pattern costs the
  // same, the paper's headline property.
  DeviceConfig device;
  PerfEstimate a = EstimateJob(device, 1'000'000, 72'000'000, 1);
  PerfEstimate b = EstimateJob(device, 1'000'000, 72'000'000, 1);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(PerfModelTest, LinearInInputSize) {
  DeviceConfig device;
  PerfEstimate small = EstimateJob(device, 1'000'000, 72'000'000, 1);
  PerfEstimate big = EstimateJob(device, 10'000'000, 720'000'000, 1);
  EXPECT_NEAR(big.seconds / small.seconds, 10.0, 0.5);
}

// --- DES vs closed form ---------------------------------------------------------

TEST(PerfModelTest, AgreesWithDiscreteEventSimulation) {
  // The closed form and the simulator must tell the same story, single
  // engine and saturated.
  AddressDataOptions data;
  data.num_records = 200'000;
  auto table = GenerateAddressTable(data, "addr");
  ASSERT_TRUE(table.ok());
  const Bat* strings = (*table)->GetColumn("address_string");
  const int64_t heap_bytes = strings->heap()->size_bytes();

  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  Bat scratch(ValueType::kInt16);
  ASSERT_TRUE(scratch.AppendZeros(strings->count()).ok());

  JobParams params;
  params.offsets = strings->tail_data();
  params.heap = strings->heap()->data();
  params.result = scratch.mutable_tail_data();
  params.count = strings->count();
  params.heap_bytes = heap_bytes;
  params.program = config->program;
  params.timing_only = true;
  auto job = fpga.Submit(std::move(params));
  ASSERT_TRUE(job.ok());
  auto finish = fpga.WaitForJob(*job);
  ASSERT_TRUE(finish.ok());

  double des_seconds = fpga.status(*job)->ExecSeconds();
  PerfEstimate est = EstimateJob(device, data.num_records, heap_bytes, 1);
  EXPECT_NEAR(des_seconds, est.seconds, est.seconds * 0.15)
      << "DES " << des_seconds << "s vs model " << est.seconds << "s";
}

// --- Resource model (Fig. 14) -----------------------------------------------------

TEST(ResourceModelTest, DefaultDeploymentAround80Percent) {
  ResourceUsage usage = EstimateResources(DefaultDeviceConfig());
  EXPECT_NEAR(usage.logic_pct, 80.0, 3.0);
  EXPECT_NEAR(usage.bram_pct, 42.0, 1.0);  // paper: constant 42% BRAM
  EXPECT_TRUE(usage.fits);
  EXPECT_DOUBLE_EQ(usage.qpi_endpoint_pct, 28.0);  // paper: 28% of logic
}

TEST(ResourceModelTest, FiveEnginesStillFitPhysically) {
  DeviceConfig five;
  five.num_engines = 5;
  ResourceUsage usage = EstimateResources(five);
  EXPECT_TRUE(usage.fits);  // resources fit; timing is what fails (below)
  EXPECT_GT(usage.logic_pct, EstimateResources(DefaultDeviceConfig()).logic_pct);
}

TEST(ResourceModelTest, CharactersScaleLinearly) {
  DeviceConfig base;
  auto at_chars = [&](int chars) {
    DeviceConfig d = base;
    d.max_chars = chars;
    return EstimateResources(d).processing_units_pct;
  };
  double d1 = at_chars(32) - at_chars(16);
  double d2 = at_chars(48) - at_chars(32);
  double d3 = at_chars(64) - at_chars(48);
  EXPECT_NEAR(d1, d2, 1e-9);
  EXPECT_NEAR(d2, d3, 1e-9);
  // 64 characters still fit on the chip (Fig. 14b).
  DeviceConfig big = base;
  big.max_chars = 64;
  EXPECT_TRUE(EstimateResources(big).fits);
}

TEST(ResourceModelTest, StatesScaleQuadratically) {
  DeviceConfig base;
  auto at_states = [&](int states) {
    DeviceConfig d = base;
    d.max_states = states;
    return EstimateResources(d).processing_units_pct;
  };
  double d1 = at_states(16) - at_states(8);
  double d2 = at_states(24) - at_states(16);
  EXPECT_GT(d2, d1 * 1.5);  // super-linear growth
  DeviceConfig big = base;
  big.max_states = 16;
  EXPECT_TRUE(EstimateResources(big).fits);  // Fig. 14c: 16 states fit
}

TEST(ResourceModelTest, AlternativeEnginePuConfigs) {
  // 4x16, 2x32 and 1x64 all fit (paper §7.9 discusses all three).
  for (auto [engines, pus] : {std::pair{4, 16}, {2, 32}, {1, 64}}) {
    DeviceConfig d;
    d.num_engines = engines;
    d.pus_per_engine = pus;
    EXPECT_TRUE(EstimateResources(d).fits)
        << engines << "x" << pus;
  }
}

// --- Timing model (Fig. 15 and Fig. 14a's 5x16 failure) ---------------------------

TEST(TimingModelTest, DefaultDeploymentClosesTiming) {
  EXPECT_TRUE(CheckDeployment(DefaultDeviceConfig()).ok());
}

TEST(TimingModelTest, FiveEnginesFailRouting) {
  DeviceConfig five;
  five.num_engines = 5;
  Status st = CheckDeployment(five);
  EXPECT_TRUE(st.IsTimingViolation()) << st.ToString();
}

TEST(TimingModelTest, HalvingTheClockEnlargesTheDesignSpace) {
  int feasible_400 = 0;
  int feasible_200 = 0;
  for (int states = 8; states <= 32; states += 4) {
    for (int chars = 16; chars <= 64; chars += 16) {
      if (PuConfigurationFeasible(states, chars, 400'000'000)) {
        ++feasible_400;
      }
      if (PuConfigurationFeasible(states, chars, 200'000'000)) {
        ++feasible_200;
      }
    }
  }
  EXPECT_GT(feasible_400, 0);
  EXPECT_GT(feasible_200, feasible_400);  // Fig. 15's headline
}

TEST(TimingModelTest, MonotoneInStatesAndChars) {
  // If (s, c) fails, any larger configuration fails too.
  for (int64_t clock : {200'000'000, 400'000'000}) {
    for (int s = 4; s <= 60; s += 4) {
      for (int c = 8; c <= 64; c += 8) {
        if (!PuConfigurationFeasible(s, c, clock)) {
          EXPECT_FALSE(PuConfigurationFeasible(s + 4, c, clock));
          EXPECT_FALSE(PuConfigurationFeasible(s, c + 8, clock));
        }
      }
    }
  }
}

TEST(TimingModelTest, CriticalPathGrowsWithBoth) {
  EXPECT_GT(CriticalPathNs(16, 16), CriticalPathNs(8, 16));
  EXPECT_GT(CriticalPathNs(8, 32), CriticalPathNs(8, 16));
}

TEST(TimingModelTest, OverBudgetDeploymentIsCapacityError) {
  DeviceConfig huge;
  huge.num_engines = 8;
  huge.pus_per_engine = 32;
  Status st = CheckDeployment(huge);
  EXPECT_TRUE(st.IsCapacityExceeded()) << st.ToString();
}

}  // namespace
}  // namespace doppio
