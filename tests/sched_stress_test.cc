// Multi-threaded scheduler stress: many sessions, mixed patterns, fault
// injection, admission backpressure, and teardown under load. Thread and
// iteration counts are deliberately modest so the suite stays fast under
// ThreadSanitizer, which is where CI runs it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/hudf.h"
#include "hw/fault_plan.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "regex/dfa_matcher.h"
#include "sched/scheduler.h"

namespace doppio {
namespace {

using sched::QueryScheduler;
using sched::QueryTicket;
using sched::Session;
using sched::SessionOptions;

Hal::Options StressHal(FaultPlan faults = {}) {
  Hal::Options options;
  options.shared_memory_bytes = 256 * kSharedPageBytes;
  options.functional_threads = 1;
  options.device.faults = faults;
  return options;
}

const char* kPatterns[] = {"Strasse", "Gasse", "Berner", "61234"};

void FillInput(Bat* input, int rows, int salt) {
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
}

/// Expected nonzero-ness per row, from the software reference matcher.
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

// Many concurrent sessions with distinct inputs and a rotating pattern
// mix, on a device that drops and delays jobs: every query must still
// complete with results matching the software reference (dropped slices
// degrade to bit-identical software execution), and nobody starves.
TEST(SchedStressTest, ManySessionsMixedPatternsUnderFaults) {
  FaultPlan faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.drop_rate = 0.15;
  faults.submit_failure_rate = 0.05;
  Hal hal(StressHal(faults));

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 10;
  constexpr int kRows = 64;

  QueryScheduler::Options options;
  options.cost_routing = false;
  QueryScheduler scheduler(&hal, options);

  // Inputs (and their ground truth) are built on the main thread; worker
  // threads only submit and wait.
  std::vector<std::unique_ptr<Bat>> inputs;
  std::vector<std::vector<bool>> expected;
  std::vector<Session*> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto input =
        std::make_unique<Bat>(ValueType::kString, hal.bat_allocator());
    FillInput(input.get(), kRows, /*salt=*/t);
    expected.push_back(GroundTruth(*input, kPatterns[t % 4]));
    inputs.push_back(std::move(input));
    SessionOptions session_options;
    session_options.tenant = "tenant" + std::to_string(t);
    session_options.weight = 1 + t % 3;
    sessions.push_back(scheduler.CreateSession(session_options));
  }

  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Bat& input = *inputs[static_cast<size_t>(t)];
      const std::vector<bool>& want = expected[static_cast<size_t>(t)];
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Result<sched::ScheduledResult> result = Status::Internal("unset");
        for (int attempt = 0; attempt < 100; ++attempt) {
          result = scheduler.Execute(sessions[static_cast<size_t>(t)], input,
                                     kPatterns[t % 4]);
          // Backpressure is a retryable client-side condition, not an
          // error: back off and resubmit.
          if (!result.ok() && result.status().IsOverloaded()) {
            std::this_thread::yield();
            continue;
          }
          break;
        }
        if (!result.ok()) {
          ++failures;
          continue;
        }
        bool rows_ok = result->hudf.result->count() == input.count();
        for (int64_t r = 0; rows_ok && r < input.count(); ++r) {
          rows_ok = (result->hudf.result->GetInt16(r) != 0) ==
                    want[static_cast<size_t>(r)];
        }
        if (!rows_ok) {
          ++failures;
          continue;
        }
        ++completed;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kQueriesPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sessions[static_cast<size_t>(t)]->completed(),
              kQueriesPerThread)
        << "tenant" << t;
  }
  scheduler.Shutdown();
}

// Tiny queue bounds under concurrent load: Submit must reject with
// Overloaded (never deadlock, never lose a query), and retrying clients
// must all make progress.
TEST(SchedStressTest, OverloadedBackpressureMakesProgress) {
  Hal hal(StressHal());
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;

  QueryScheduler::Options options;
  options.cost_routing = false;
  options.global_queue_limit = 3;
  QueryScheduler scheduler(&hal, options);

  std::vector<std::unique_ptr<Bat>> inputs;
  std::vector<Session*> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto input =
        std::make_unique<Bat>(ValueType::kString, hal.bat_allocator());
    FillInput(input.get(), 32, /*salt=*/t);
    inputs.push_back(std::move(input));
    SessionOptions session_options;
    session_options.tenant = "burst" + std::to_string(t);
    session_options.max_queued = 1;
    sessions.push_back(scheduler.CreateSession(session_options));
  }

  std::atomic<int> completed{0};
  std::atomic<int> overloads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        while (true) {
          auto result = scheduler.Execute(sessions[static_cast<size_t>(t)],
                                          *inputs[static_cast<size_t>(t)],
                                          kPatterns[t % 4]);
          if (result.ok()) {
            ++completed;
            break;
          }
          ASSERT_TRUE(result.status().IsOverloaded())
              << result.status().ToString();
          ++overloads;
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kThreads * kQueriesPerThread);
}

// Shutdown while clients are mid-flight: queued queries fail cleanly with
// Unavailable, in-flight waves complete, the CPU pool drains, and nothing
// hangs or crashes. Clients treat Unavailable as the stop signal.
TEST(SchedStressTest, TeardownUnderLoad) {
  Hal hal(StressHal());
  constexpr int kThreads = 4;

  auto scheduler = std::make_unique<QueryScheduler>(&hal);
  std::vector<std::unique_ptr<Bat>> inputs;
  std::vector<Session*> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto input =
        std::make_unique<Bat>(ValueType::kString, hal.bat_allocator());
    FillInput(input.get(), 32, /*salt=*/t);
    inputs.push_back(std::move(input));
    sessions.push_back(scheduler->CreateSession());
  }

  std::atomic<int> completed{0};
  std::atomic<int> stopped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        auto result = scheduler->Execute(sessions[static_cast<size_t>(t)],
                                         *inputs[static_cast<size_t>(t)],
                                         kPatterns[t % 4]);
        if (result.ok()) {
          ++completed;
          continue;
        }
        if (result.status().IsOverloaded()) {
          std::this_thread::yield();
          continue;
        }
        // Scheduler going away mid-request is the only other legal
        // outcome.
        EXPECT_TRUE(result.status().IsUnavailable())
            << result.status().ToString();
        ++stopped;
        break;
      }
    });
  }
  // Let the clients get going, then pull the plug while they are active.
  while (completed.load() < kThreads) std::this_thread::yield();
  scheduler->Shutdown();
  for (auto& thread : threads) thread.join();

  EXPECT_GE(completed.load(), kThreads);
  // Destruction after shutdown with no queries in flight must be clean.
  scheduler.reset();
}

// Multi-device leg: the scheduler's waves run through the pooled executor
// across a 3-device pool whose members fail differently — device 0 clean,
// device 1 dropping jobs, device 2 with a permanently stalled engine.
// Every query must still complete with results matching the software
// reference, nobody may livelock on Overloaded, and the healthy members
// must absorb the faulty ones' backlog.
TEST(SchedStressTest, MultiDevicePoolMixedFaultsStaysBitIdentical) {
  FaultPlan dropping;
  dropping.enabled = true;
  dropping.seed = 23;
  dropping.drop_rate = 0.2;
  dropping.submit_failure_rate = 0.05;
  FaultPlan stalled;
  stalled.enabled = true;
  stalled.stalled_engine_mask = 0x1;  // engine 0 hangs forever

  Hal::Options hal_options = StressHal();
  hal_options.num_devices = 3;
  hal_options.device_faults = {FaultPlan{}, dropping, stalled};
  Hal hal(hal_options);
  ASSERT_EQ(hal.pool()->size(), 3);

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 8;
  constexpr int kRows = 96;

  QueryScheduler::Options options;
  options.cost_routing = false;
  QueryScheduler scheduler(&hal, options);

  std::vector<std::unique_ptr<Bat>> inputs;
  std::vector<std::vector<bool>> expected;
  std::vector<Session*> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto input =
        std::make_unique<Bat>(ValueType::kString, hal.bat_allocator());
    FillInput(input.get(), kRows, /*salt=*/t);
    expected.push_back(GroundTruth(*input, kPatterns[t % 4]));
    inputs.push_back(std::move(input));
    SessionOptions session_options;
    session_options.tenant = "pool" + std::to_string(t);
    sessions.push_back(scheduler.CreateSession(session_options));
  }

  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Bat& input = *inputs[static_cast<size_t>(t)];
      const std::vector<bool>& want = expected[static_cast<size_t>(t)];
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Result<sched::ScheduledResult> result = Status::Internal("unset");
        for (int attempt = 0; attempt < 100; ++attempt) {
          result = scheduler.Execute(sessions[static_cast<size_t>(t)], input,
                                     kPatterns[t % 4]);
          if (!result.ok() && result.status().IsOverloaded()) {
            std::this_thread::yield();
            continue;
          }
          break;
        }
        if (!result.ok()) {
          ++failures;
          continue;
        }
        bool rows_ok = result->hudf.result->count() == input.count();
        for (int64_t r = 0; rows_ok && r < input.count(); ++r) {
          rows_ok = (result->hudf.result->GetInt16(r) != 0) ==
                    want[static_cast<size_t>(r)];
        }
        if (!rows_ok) {
          ++failures;
          continue;
        }
        ++completed;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kQueriesPerThread);
  // The pool actually spread the load: the clean device executed slices,
  // and the faulty members were not silently excluded from placement.
  int devices_used = 0;
  for (int d = 0; d < hal.pool()->size(); ++d) {
    if (hal.pool()->slices_executed(d) > 0) ++devices_used;
  }
  EXPECT_GE(devices_used, 2);
  scheduler.Shutdown();
}

// Pattern-set leg: many sessions hammer ONE shared column with a rotating
// pattern mix while set compilation is on, so concurrent waves constantly
// form, cache, and demux set-compiled scans (GetOrCompileSet under
// contention, per-stream demux with shared owners). Every query must come
// back matching the software reference for ITS pattern — a cross-stream
// mixup or a data race here is exactly what this leg exists to catch.
TEST(SchedStressTest, SetCompiledWavesUnderConcurrency) {
  Hal hal(StressHal());
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 10;
  constexpr int kRows = 64;

  QueryScheduler::Options options;
  options.cost_routing = false;
  options.set_compilation = true;
  QueryScheduler scheduler(&hal, options);

  // One shared input column: only then can different-pattern queries
  // coalesce into set scans.
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, kRows, /*salt=*/0);
  std::vector<std::vector<bool>> expected;
  for (const char* pattern : kPatterns) {
    expected.push_back(GroundTruth(input, pattern));
  }
  std::vector<Session*> sessions;
  for (int t = 0; t < kThreads; ++t) {
    SessionOptions session_options;
    session_options.tenant = "set" + std::to_string(t);
    sessions.push_back(scheduler.CreateSession(session_options));
  }

  obs::Counter* set_queries = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.queries");
  const int64_t set_queries0 = set_queries->Value();

  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  // First round: every thread queues its query before any thread waits,
  // so the first wave holds several distinct patterns however fast waves
  // run. Later rounds overlap only as the threads happen to interleave
  // (a short wave can let one thread run all its queries alone).
  std::atomic<int> first_round_queued{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int p = (t + i) % 4;
        Result<sched::ScheduledResult> result = Status::Internal("unset");
        if (i == 0) {
          auto ticket = scheduler.Submit(sessions[static_cast<size_t>(t)],
                                         input, kPatterns[p]);
          first_round_queued.fetch_add(1);
          while (first_round_queued.load() < kThreads) {
            std::this_thread::yield();
          }
          if (ticket.ok()) {
            result = scheduler.Wait(*ticket);
          } else {
            result = ticket.status();
          }
        }
        for (int attempt = 0; i > 0 && attempt < 100; ++attempt) {
          result = scheduler.Execute(sessions[static_cast<size_t>(t)], input,
                                     kPatterns[p]);
          if (!result.ok() && result.status().IsOverloaded()) {
            std::this_thread::yield();
            continue;
          }
          break;
        }
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const std::vector<bool>& want = expected[static_cast<size_t>(p)];
        bool rows_ok = result->hudf.result->count() == input.count();
        for (int64_t r = 0; rows_ok && r < input.count(); ++r) {
          rows_ok = (result->hudf.result->GetInt16(r) != 0) ==
                    want[static_cast<size_t>(r)];
        }
        if (!rows_ok) {
          ++failures;
          continue;
        }
        ++completed;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kQueriesPerThread);
  // Set compilation actually engaged — this was not 60 solo scans.
  EXPECT_GT(set_queries->Value() - set_queries0, 0);
  scheduler.Shutdown();
}

}  // namespace
}  // namespace doppio
