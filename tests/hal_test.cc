#include <gtest/gtest.h>

#include "common/random.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "mem/arena.h"

namespace doppio {
namespace {

Hal::Options SmallHal() {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;  // 128 MiB
  options.functional_threads = 2;
  return options;
}

TEST(HalAllocatorTest, SmallAllocationsStayOnMalloc) {
  Hal hal(SmallHal());
  auto small = hal.allocator()->Allocate(1024);
  ASSERT_TRUE(small.ok());
  // Metadata-sized allocations are not in the shared region (§4.2.1).
  EXPECT_FALSE(hal.arena()->Contains(*small));
  ASSERT_TRUE(hal.allocator()->Free(*small).ok());
  EXPECT_EQ(hal.allocator()->malloc_allocations(), 1);
  EXPECT_EQ(hal.allocator()->shared_allocations(), 0);
}

TEST(HalAllocatorTest, BatSizedAllocationsAreShared) {
  Hal hal(SmallHal());
  auto big = hal.allocator()->Allocate(1 << 20);
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(hal.arena()->Contains(*big, 1 << 20));
  ASSERT_TRUE(hal.allocator()->Free(*big).ok());
  EXPECT_EQ(hal.allocator()->shared_allocations(), 1);
}

TEST(HalAllocatorTest, ThresholdBoundary) {
  Hal hal(SmallHal());
  auto below = hal.allocator()->Allocate(16 * 1024 - 1);
  auto at = hal.allocator()->Allocate(16 * 1024);
  ASSERT_TRUE(below.ok());
  ASSERT_TRUE(at.ok());
  EXPECT_FALSE(hal.arena()->Contains(*below));
  EXPECT_TRUE(hal.arena()->Contains(*at));
  ASSERT_TRUE(hal.allocator()->Free(*below).ok());
  ASSERT_TRUE(hal.allocator()->Free(*at).ok());
}

TEST(HalTest, CompileConfigChecksDeployedGeometry) {
  Hal::Options options = SmallHal();
  options.device.max_chars = 8;
  Hal hal(options);
  EXPECT_TRUE(hal.CompileConfig("abc").ok());
  EXPECT_TRUE(
      hal.CompileConfig("patterntoolong").status().IsCapacityExceeded());
}

TEST(HalTest, EndToEndRegexJob) {
  Hal hal(SmallHal());

  // Build a string BAT in shared memory, as MonetDB would.
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 1000; ++i) {
    bool hit = i % 5 == 0;
    ASSERT_TRUE(input
                    .AppendString(hit ? "Koblenzer Strasse 44"
                                      : "Koblenzer Gasse 44")
                    .ok());
  }

  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  auto result = Bat::New(ValueType::kInt16, input.count(), hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*result)->AppendZeros(input.count()).ok());

  auto job = hal.CreateRegexJob(input, result->get(), *config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_TRUE(job->Wait().ok());
  EXPECT_TRUE(job->Done());
  EXPECT_EQ(job->status().matches, 200);
  EXPECT_GT(job->HwSeconds(), 0.0);

  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ((*result)->GetInt16(i) != 0, i % 5 == 0);
  }
}

TEST(HalTest, RejectsMismatchedResultBat) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("x").ok());
  auto config = hal.CompileConfig("x");
  ASSERT_TRUE(config.ok());

  Bat wrong_type(ValueType::kInt32, hal.bat_allocator());
  ASSERT_TRUE(wrong_type.AppendInt32(0).ok());
  EXPECT_FALSE(
      hal.CreateRegexJob(input, &wrong_type, *config).ok());

  Bat wrong_size(ValueType::kInt16, hal.bat_allocator());
  EXPECT_FALSE(
      hal.CreateRegexJob(input, &wrong_size, *config).ok());
}

TEST(HalTest, RejectsMallocBackedInput) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString);  // malloc-backed: not FPGA-visible
  ASSERT_TRUE(input.AppendString("Strasse").ok());
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto result = Bat::New(ValueType::kInt16, 1, hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*result)->AppendZeros(1).ok());
  auto job = hal.CreateRegexJob(input, result->get(), *config);
  EXPECT_FALSE(job.ok());
}

TEST(HudfTest, RegexpFpgaReportsPhaseBreakdown) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(input.AppendString(i % 4 == 0
                                       ? "7 Berner Str.|81234|Muenchen"
                                       : "7 Berner Gasse|61234|Muenchen")
                    .ok());
  }
  auto result = RegexpFpga(&hal, input, R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.rows_scanned, 10'000);
  EXPECT_EQ(result->stats.rows_matched, 2500);
  EXPECT_GT(result->stats.hw_seconds, 0.0);
  EXPECT_GE(result->stats.config_gen_seconds, 0.0);
  EXPECT_LT(result->stats.config_gen_seconds, 1e-3);
  EXPECT_EQ(result->stats.strategy, "fpga");
  EXPECT_EQ(result->result->count(), 10'000);
}

TEST(HudfTest, RegexpFpgaCountsCompileTimeOnce) {
  // Compile time is its own phase (config_gen_seconds): it must not also
  // be subtracted from the UDF's software phase, which never included it.
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234|Muenchen").ok());
  }
  auto result = RegexpFpga(&hal, input, R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.udf_software_seconds, 0.0);
  EXPECT_GT(result->stats.config_gen_seconds, 0.0);
}

TEST(HudfTest, PartitionedMatchesSingleJob) {
  // The engine-side HUDF splits one query across all four engines
  // (paper §7.5); results must be identical to the single-job run and
  // the virtual execution faster (QPI saturation vs window limit).
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  Rng rng(4);
  for (int i = 0; i < 40'000; ++i) {
    std::string row = rng.Bernoulli(0.25)
                          ? "7 Berner Strasse|61234|Muenchen"
                          : "7 Berner Gasse|61234|Muenchen";
    ASSERT_TRUE(input.AppendString(row).ok());
  }

  auto single = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(single.ok());
  auto partitioned = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();

  ASSERT_EQ(partitioned->result->count(), single->result->count());
  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ(partitioned->result->GetInt16(i), single->result->GetInt16(i))
        << i;
  }
  EXPECT_EQ(partitioned->stats.rows_matched, single->stats.rows_matched);
  // Four engines streaming concurrently beat one window-limited engine.
  EXPECT_LT(partitioned->stats.hw_seconds, single->stats.hw_seconds);
}

TEST(HudfTest, PartitionedHandlesTinyInputs) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("Strasse").ok());
  ASSERT_TRUE(input.AppendString("Gasse").ok());
  auto result = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->result->GetInt16(0), 0);
  EXPECT_EQ(result->result->GetInt16(1), 0);
}

TEST(HudfTest, ZeroRowInputYieldsEmptyResult) {
  // Regression: an empty BAT used to produce no jobs but still derive the
  // hardware phase from an empty min/max of enqueue/finish times.
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());

  auto single = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->result->count(), 0);
  EXPECT_EQ(single->stats.rows_matched, 0);
  EXPECT_EQ(single->stats.hw_seconds, 0.0);

  auto part =
      RegexpFpgaPartitioned(&hal, input, "Strasse", CompileOptions{}, 4);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ(part->result->count(), 0);
  EXPECT_EQ(part->stats.rows_matched, 0);
  EXPECT_EQ(part->stats.hw_seconds, 0.0);
  EXPECT_EQ(part->stats.strategy, "fpga");
}

TEST(HudfTest, OneRowWithMorePartitionsThanRows) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
  auto out =
      RegexpFpgaPartitioned(&hal, input, "Strasse", CompileOptions{}, 4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->result->count(), 1);
  EXPECT_NE(out->result->GetInt16(0), 0);
  EXPECT_EQ(out->stats.rows_matched, 1);
  EXPECT_GT(out->stats.hw_seconds, 0.0);
}

TEST(HudfTest, OverCapacityPatternFails) {
  Hal::Options options = SmallHal();
  options.device.max_chars = 8;
  Hal hal(options);
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("abc").ok());
  auto result = RegexpFpga(&hal, input, "averyveryverylongpattern");
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

}  // namespace
}  // namespace doppio
