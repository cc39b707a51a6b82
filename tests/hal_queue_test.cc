#include <gtest/gtest.h>

#include "db/hudf.h"
#include "hal/aal.h"
#include "hal/hal.h"
#include "hal/job_lifecycle.h"
#include "hal/job_queue.h"
#include "hw/fpga_device.h"
#include "mem/arena.h"

namespace doppio {
namespace {

TEST(SharedJobQueueTest, FifoOrder) {
  auto queue = SharedJobQueue::Create(nullptr, 8);
  ASSERT_TRUE(queue.ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    JobDescriptor d;
    d.job_id = i;
    EXPECT_TRUE((*queue)->Push(d));
  }
  for (uint64_t i = 1; i <= 5; ++i) {
    JobDescriptor d;
    ASSERT_TRUE((*queue)->Pop(&d));
    EXPECT_EQ(d.job_id, i);
  }
  JobDescriptor d;
  EXPECT_FALSE((*queue)->Pop(&d));
}

TEST(SharedJobQueueTest, FullQueueRejectsPush) {
  auto queue = SharedJobQueue::Create(nullptr, 2);
  ASSERT_TRUE(queue.ok());
  JobDescriptor d;
  EXPECT_TRUE((*queue)->Push(d));
  EXPECT_TRUE((*queue)->Push(d));
  EXPECT_TRUE((*queue)->Full());
  EXPECT_FALSE((*queue)->Push(d));
  ASSERT_TRUE((*queue)->Pop(&d));
  EXPECT_TRUE((*queue)->Push(d));  // space again
}

TEST(SharedJobQueueTest, WrapsAround) {
  auto queue = SharedJobQueue::Create(nullptr, 4);
  ASSERT_TRUE(queue.ok());
  uint64_t next_push = 1;
  uint64_t next_pop = 1;
  for (int round = 0; round < 25; ++round) {
    JobDescriptor d;
    d.job_id = next_push++;
    ASSERT_TRUE((*queue)->Push(d));
    if (round % 2 == 0) {
      JobDescriptor out;
      ASSERT_TRUE((*queue)->Pop(&out));
      EXPECT_EQ(out.job_id, next_pop++);
    }
    if ((*queue)->Full()) {
      JobDescriptor out;
      ASSERT_TRUE((*queue)->Pop(&out));
      EXPECT_EQ(out.job_id, next_pop++);
    }
  }
}

TEST(SharedJobQueueTest, RingLivesInSharedMemory) {
  SharedArena arena(4 * kSharedPageBytes);
  auto queue = SharedJobQueue::Create(&arena, 16);
  ASSERT_TRUE(queue.ok());
  EXPECT_TRUE(arena.Contains((*queue)->ring_address()));
}

TEST(SharedJobQueueTest, DescriptorIsOneCacheLine) {
  EXPECT_EQ(sizeof(JobDescriptor), 64u);
}

TEST(AalSessionTest, BootstrapHandshake) {
  SharedArena arena(8 * kSharedPageBytes);
  DeviceConfig config;
  FpgaDevice device(config, &arena);
  auto session = AalSession::Bootstrap(&arena, &device);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  DeviceStatusMemory* dsm = (*session)->dsm();
  EXPECT_EQ(dsm->afu_id.load(), kRegexAfuId);
  EXPECT_EQ(dsm->handshake_complete.load(), 1u);
  EXPECT_NE(dsm->job_queue_addr.load(), 0u);
  // All engines are idle before any job.
  EXPECT_EQ(dsm->idle_engines.load(),
            static_cast<uint32_t>(config.num_engines));
  // The DSM page itself is in the shared region.
  EXPECT_TRUE(arena.Contains(dsm));
}

TEST(AalSessionTest, BootstrapRequiresDeviceAndArena) {
  SharedArena arena(4 * kSharedPageBytes);
  EXPECT_FALSE(AalSession::Bootstrap(&arena, nullptr).ok());
  DeviceConfig config;
  FpgaDevice device(config, &arena);
  EXPECT_FALSE(AalSession::Bootstrap(nullptr, &device).ok());
}

TEST(HalTest2, HalBootstrapsAal) {
  Hal::Options options;
  options.shared_memory_bytes = 32 * kSharedPageBytes;
  options.functional_threads = 1;
  Hal hal(options);
  ASSERT_NE(hal.aal(), nullptr);
  EXPECT_EQ(hal.aal()->dsm()->afu_id.load(), kRegexAfuId);
}

TEST(HalTest2, QueueBackpressureSurfacesAsError) {
  // Fill the 64-deep ring with unserved jobs by enqueuing without ever
  // running the scheduler.
  SharedArena arena(32 * kSharedPageBytes);
  DeviceConfig config;
  FpgaDevice device(config, &arena);

  // Build a minimal valid job in shared memory.
  SlabAllocator slab(&arena);
  auto heap_mem = slab.Allocate(1 << 16);
  ASSERT_TRUE(heap_mem.ok());

  class SlabAlloc : public BufferAllocator {
   public:
    explicit SlabAlloc(SlabAllocator* s) : s_(s) {}
    Result<void*> Allocate(int64_t bytes) override {
      return s_->Allocate(bytes);
    }
    Status Free(void* p) override { return s_->Free(p); }
    SlabAllocator* s_;
  } alloc(&slab);

  Bat strings(ValueType::kString, &alloc);
  ASSERT_TRUE(strings.AppendString("Strasse").ok());
  Bat result(ValueType::kInt16, &alloc);
  ASSERT_TRUE(result.AppendZeros(1).ok());
  auto cfg = CompileRegexConfig("Strasse", config);
  ASSERT_TRUE(cfg.ok());

  int accepted = 0;
  Status last;
  for (int i = 0; i < 200; ++i) {
    JobParams params;
    params.offsets = strings.tail_data();
    params.heap = strings.heap()->data();
    params.result = result.mutable_tail_data();
    params.count = 1;
    params.heap_bytes = strings.heap()->size_bytes();
    params.program = cfg->program;
    auto job = device.Submit(std::move(params));
    if (job.ok()) {
      ++accepted;
    } else {
      last = job.status();
      break;
    }
  }
  EXPECT_EQ(accepted, 64);  // ring capacity: submissions never queue
                            // beyond it, they are refused with a typed
                            // status instead
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsFallbackEligible(last));

  // Draining the device frees the ring again.
  device.RunToIdle();
  JobParams params;
  params.offsets = strings.tail_data();
  params.heap = strings.heap()->data();
  params.result = result.mutable_tail_data();
  params.count = 1;
  params.heap_bytes = strings.heap()->size_bytes();
  params.program = cfg->program;
  EXPECT_TRUE(device.Submit(std::move(params)).ok());
}

// ---------------------------------------------------------------------------
// Fault-tolerant job lifecycle (deadlines, retry/backoff, degradation).

Hal::Options LifecycleHal(const FaultPlan& faults) {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;
  options.functional_threads = 1;
  options.device.faults = faults;
  return options;
}

void FillAddressBat(Bat* input, int rows) {
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(input
                    ->AppendString(i % 3 == 0 ? "7 Berner Strasse|61234"
                                              : "7 Berner Gasse|61234")
                    .ok());
  }
}

// Runs "Strasse" over `rows` addresses on a fault-free device and returns
// the expected raw result column.
std::vector<int16_t> FaultFreeExpected(int rows) {
  Hal hal(LifecycleHal(FaultPlan{}));
  Bat input(ValueType::kString, hal.bat_allocator());
  FillAddressBat(&input, rows);
  auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<int16_t> expected(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) expected[static_cast<size_t>(i)] =
      out->result->GetInt16(i);
  return expected;
}

TEST(JobLifecycleTest, DropsExhaustRetryBudgetWithMonotoneBackoff) {
  FaultPlan faults;
  faults.enabled = true;
  faults.drop_rate = 1.0;  // every dispatched attempt vanishes
  Hal hal(LifecycleHal(faults));

  Bat input(ValueType::kString, hal.bat_allocator());
  FillAddressBat(&input, 16);
  auto result =
      Bat::New(ValueType::kInt16, input.count(), hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*result)->AppendZeros(input.count()).ok());
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto params = hal.BuildRegexJobParams(input, result->get(), *config);
  ASSERT_TRUE(params.ok());

  const RetryPolicy& policy = hal.retry_policy();
  JobOutcome outcome =
      RunJobWithRetry(hal.device(), *params, policy, nullptr);

  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.fault_seen);
  EXPECT_EQ(outcome.retries, policy.max_retries);
  EXPECT_TRUE(outcome.final_status.IsUnavailable() ||
              outcome.final_status.IsDeadlineExceeded())
      << outcome.final_status.ToString();
  EXPECT_TRUE(IsFallbackEligible(outcome.final_status));
  EXPECT_GT(outcome.deadline_budget, 0);
  // One backoff per resubmission, strictly increasing (exponential).
  ASSERT_EQ(outcome.backoffs.size(),
            static_cast<size_t>(policy.max_retries));
  for (size_t i = 1; i < outcome.backoffs.size(); ++i) {
    EXPECT_GT(outcome.backoffs[i], outcome.backoffs[i - 1]);
  }
}

TEST(JobLifecycleTest, DroppedJobsAreRequeuedWithinRetryBudget) {
  const int rows = 64;
  const std::vector<int16_t> expected = FaultFreeExpected(rows);

  int64_t total_retries = 0;
  for (uint64_t seed : {7u, 97u, 1234u}) {
    FaultPlan faults;
    faults.enabled = true;
    faults.seed = seed;
    faults.drop_rate = 0.5;
    Hal hal(LifecycleHal(faults));
    Bat input(ValueType::kString, hal.bat_allocator());
    FillAddressBat(&input, rows);

    auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    // Results are bit-identical to the fault-free run whether a slice was
    // served by a requeued job or by the software fallback.
    for (int i = 0; i < rows; ++i) {
      EXPECT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
          << "row " << i << " seed " << seed;
    }
    EXPECT_LE(out->stats.job_retries,
              hal.retry_policy().max_retries *
                  hal.device_config().num_engines);
    total_retries += out->stats.job_retries;
  }
  // 50% drops across three seeds must exercise the requeue path.
  EXPECT_GT(total_retries, 0);
}

TEST(JobLifecycleTest, StalledEnginesDegradeToSoftwareFallback) {
  const int rows = 48;
  const std::vector<int16_t> expected = FaultFreeExpected(rows);

  FaultPlan faults;
  faults.enabled = true;
  faults.stalled_engine_mask = 0xF;  // all four engines wedge forever
  Hal hal(LifecycleHal(faults));
  Bat input(ValueType::kString, hal.bat_allocator());
  FillAddressBat(&input, rows);

  auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.strategy, "fpga+sw_fallback");
  EXPECT_EQ(out->stats.fallback_rows, rows);
  int64_t matched = 0;
  for (int i = 0; i < rows; ++i) {
    EXPECT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
        << "row " << i;
    if (out->result->GetInt16(i) != 0) ++matched;
  }
  EXPECT_EQ(out->stats.rows_matched, matched);
}

TEST(JobLifecycleTest, TransientSubmitFailuresDegradeGracefully) {
  const int rows = 32;
  const std::vector<int16_t> expected = FaultFreeExpected(rows);

  FaultPlan faults;
  faults.enabled = true;
  faults.submit_failure_rate = 1.0;  // the device never accepts a job
  Hal hal(LifecycleHal(faults));
  Bat input(ValueType::kString, hal.bat_allocator());
  FillAddressBat(&input, rows);

  auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.strategy, "fpga+sw_fallback");
  EXPECT_EQ(out->stats.fallback_rows, rows);
  EXPECT_GT(out->stats.job_retries, 0);  // submits were retried first
  for (int i = 0; i < rows; ++i) {
    EXPECT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
        << "row " << i;
  }
}

TEST(JobLifecycleTest, FaultPlanLotteryIsDeterministic) {
  FaultPlan faults;
  faults.enabled = true;
  faults.seed = 42;
  faults.drop_rate = 0.25;
  // Same (kind, sequence) must fire identically across instances and
  // runs; different kinds draw independently.
  FaultPlan same = faults;
  int fired = 0;
  for (uint64_t seq = 0; seq < 512; ++seq) {
    EXPECT_EQ(faults.Fires(FaultKind::kDrop, seq, faults.drop_rate),
              same.Fires(FaultKind::kDrop, seq, faults.drop_rate));
    if (faults.Fires(FaultKind::kDrop, seq, faults.drop_rate)) ++fired;
  }
  // ~25% of 512 draws; generous bounds, deterministic given the seed.
  EXPECT_GT(fired, 64);
  EXPECT_LT(fired, 192);
  EXPECT_FALSE(FaultPlan{}.Fires(FaultKind::kDrop, 0, 1.0));  // disabled
  EXPECT_TRUE(faults.Fires(FaultKind::kSubmit, 0, 1.0));
  EXPECT_FALSE(faults.Fires(FaultKind::kSubmit, 0, 0.0));
}

TEST(StatusClassificationTest, FallbackEligibleVsFatal) {
  EXPECT_TRUE(IsFallbackEligible(Status::Unavailable("x")));
  EXPECT_TRUE(IsFallbackEligible(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsFallbackEligible(Status::IOError("x")));
  EXPECT_TRUE(IsFallbackEligible(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsFallbackEligible(Status::NotImplemented("x")));
  EXPECT_TRUE(IsFallbackEligible(Status::CapacityExceeded("x")));
  EXPECT_FALSE(IsFallbackEligible(Status::OK()));
  EXPECT_FALSE(IsFallbackEligible(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsFallbackEligible(Status::Internal("x")));
  EXPECT_FALSE(IsFallbackEligible(Status::OutOfMemory("x")));
  // An admission reject is a scheduling verdict, not a device fault: the
  // client backs off instead of degrading to software.
  EXPECT_FALSE(IsFallbackEligible(Status::Overloaded("x")));
}

TEST(StatusClassificationTest, NewCodesRoundTrip) {
  Status re = Status::ResourceExhausted("ring full");
  EXPECT_TRUE(re.IsResourceExhausted());
  EXPECT_EQ(re.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(re.ToString(), "ResourceExhausted: ring full");
  Status ov = Status::Overloaded("tenant queue full");
  EXPECT_TRUE(ov.IsOverloaded());
  EXPECT_EQ(ov.code(), StatusCode::kOverloaded);
  EXPECT_EQ(ov.ToString(), "Overloaded: tenant queue full");
}

}  // namespace
}  // namespace doppio
