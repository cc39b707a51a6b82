#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "bat/bat.h"
#include "common/random.h"
#include "hw/config_compiler.h"
#include "hw/fifo.h"
#include "hw/fpga_device.h"
#include "hw/output_collector.h"
#include "hw/string_reader.h"
#include "regex/dfa_matcher.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

std::unique_ptr<Bat> MakeStrings(const std::vector<std::string>& values) {
  auto bat = std::make_unique<Bat>(ValueType::kString);
  for (const auto& v : values) {
    EXPECT_TRUE(bat->AppendString(v).ok());
  }
  return bat;
}

JobParams MakeJob(const Bat& input, Bat* result,
                  const RegexConfig& config) {
  JobParams params;
  params.offsets = input.tail_data();
  params.heap = input.heap()->data();
  params.result = result->mutable_tail_data();
  params.count = input.count();
  params.offset_width = 4;
  params.heap_bytes = input.heap()->size_bytes();
  params.program = config.program;
  return params;
}

TEST(FifoTest, BoundedWithStallAccounting) {
  Fifo<int> fifo(2);
  EXPECT_TRUE(fifo.Empty());
  EXPECT_TRUE(fifo.Push(1));
  EXPECT_TRUE(fifo.Push(2));
  EXPECT_TRUE(fifo.Full());
  EXPECT_FALSE(fifo.Push(3));  // back-pressure
  EXPECT_EQ(fifo.push_stalls(), 1);
  int v = 0;
  EXPECT_TRUE(fifo.Pop(&v));
  EXPECT_EQ(v, 1);  // FIFO order
  EXPECT_TRUE(fifo.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(fifo.Pop(&v));  // empty
  EXPECT_EQ(fifo.pop_stalls(), 1);
  EXPECT_EQ(fifo.total_pushed(), 2);
  EXPECT_EQ(fifo.max_occupancy(), 2u);
}

TEST(StringReaderTest, BlockStructureAndTraffic) {
  std::vector<std::string> values;
  for (int i = 0; i < 10'000; ++i) {
    values.push_back("row " + std::to_string(i) + " payload padding xyz");
  }
  auto bat = MakeStrings(values);
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(bat->count()).ok());
  DeviceConfig device;
  auto config = CompileRegexConfig("payload", device);
  ASSERT_TRUE(config.ok());
  JobParams params = MakeJob(*bat, &result, *config);

  StringReader reader(params);
  int64_t strings_seen = 0;
  int64_t blocks = 0;
  while (reader.HasMore()) {
    auto block = reader.ReadBlock();
    ASSERT_TRUE(block.ok());
    strings_seen += block->num_strings;
    ++blocks;
    EXPECT_LE(block->num_strings, kStringsPerBlock);
    EXPECT_GT(block->offset_lines, 0);
    EXPECT_GT(block->heap_lines, 0);
    // Heap traffic must cover at least the payload bytes.
    EXPECT_GE(block->heap_lines * kCacheLineBytes, block->string_bytes);
    // Strings come back in input order.
    EXPECT_EQ(block->strings[0],
              values[static_cast<size_t>(block->first_string)]);
  }
  EXPECT_EQ(strings_seen, 10'000);
  EXPECT_EQ(blocks, (10'000 + kStringsPerBlock - 1) / kStringsPerBlock);
}

TEST(OutputCollectorTest, PacksResultsInOrder) {
  auto bat = MakeStrings({"a", "b", "c"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(3).ok());
  DeviceConfig device;
  auto config = CompileRegexConfig("a", device);
  ASSERT_TRUE(config.ok());
  JobParams params = MakeJob(*bat, &result, *config);
  OutputCollector collector(params);
  ASSERT_TRUE(collector.Append(1).ok());
  ASSERT_TRUE(collector.Append(0).ok());
  ASSERT_TRUE(collector.Append(7).ok());
  EXPECT_FALSE(collector.Append(9).ok());  // overflow
  EXPECT_EQ(result.GetInt16(0), 1);
  EXPECT_EQ(result.GetInt16(1), 0);
  EXPECT_EQ(result.GetInt16(2), 7);
  EXPECT_EQ(collector.matches(), 2);
  EXPECT_EQ(OutputCollector::TotalResultLines(33), 2);
}

TEST(FpgaDeviceTest, ExecutesJobFunctionally) {
  auto bat = MakeStrings({
      "John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
      "Anna|Meier|7 Berner Gasse|10115|Berlin",
      "Karl|Huber|1 Wiener Strasse|80331|Muenchen",
  });
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(bat->count()).ok());

  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  auto job = fpga.Submit(MakeJob(*bat, &result, *config));
  ASSERT_TRUE(job.ok());
  auto finish = fpga.WaitForJob(*job);
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();

  EXPECT_NE(result.GetInt16(0), 0);
  EXPECT_EQ(result.GetInt16(1), 0);
  EXPECT_NE(result.GetInt16(2), 0);
  const JobStatus* st = fpga.status(*job);
  EXPECT_EQ(st->matches, 2);
  EXPECT_EQ(st->strings_processed, 3);
  EXPECT_GT(st->finish_time, st->start_time);
}

TEST(FpgaDeviceTest, ResultsMatchDfaOnGeneratedData) {
  AddressDataOptions opts;
  opts.num_records = 20'000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");

  DeviceConfig device;
  FpgaDevice fpga(device);
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    Bat result(ValueType::kInt16);
    ASSERT_TRUE(result.AppendZeros(strings.count()).ok());
    auto config = CompileRegexConfig(QueryPattern(q), device);
    ASSERT_TRUE(config.ok()) << QueryName(q);
    auto job = fpga.Submit(MakeJob(strings, &result, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());

    auto dfa = DfaMatcher::Compile(QueryPattern(q));
    ASSERT_TRUE(dfa.ok());
    for (int64_t i = 0; i < strings.count(); ++i) {
      MatchResult sw = (*dfa)->Find(strings.GetString(i));
      EXPECT_EQ(result.GetInt16(i) != 0, sw.matched)
          << QueryName(q) << " row " << i;
    }
  }
}

TEST(FpgaDeviceTest, FourConcurrentJobsUseFourEngines) {
  auto bat = MakeStrings(std::vector<std::string>(
      1000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  for (int i = 0; i < 4; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();
  std::set<int64_t> engines;
  for (JobId id : jobs) {
    EXPECT_EQ(fpga.status(id)->done.load(), 1u);
    engines.insert(fpga.status(id)->engine_id);
  }
  EXPECT_EQ(engines.size(), 4u);  // all four engines were used
}

TEST(FpgaDeviceTest, DifferentQueriesRunConcurrently) {
  // Paper §3: "All engines operate concurrently and can process different
  // queries" — four jobs with four *different* configuration vectors.
  AddressDataOptions opts;
  opts.num_records = 4000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");

  DeviceConfig device;
  FpgaDevice fpga(device);
  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  std::vector<EvalQuery> queries = {EvalQuery::kQ1, EvalQuery::kQ2,
                                    EvalQuery::kQ3, EvalQuery::kQ4};
  for (EvalQuery q : queries) {
    auto config = CompileRegexConfig(QueryPattern(q), device);
    ASSERT_TRUE(config.ok());
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(strings.count()).ok());
    auto job = fpga.Submit(MakeJob(strings, results.emplace_back(
                                                 std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();

  std::set<int64_t> engines;
  for (JobId id : jobs) engines.insert(fpga.status(id)->engine_id);
  EXPECT_EQ(engines.size(), 4u);  // one engine per query

  // Each result matches its own query's ground truth.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto dfa = DfaMatcher::Compile(QueryPattern(queries[qi]));
    ASSERT_TRUE(dfa.ok());
    for (int64_t i = 0; i < strings.count(); ++i) {
      EXPECT_EQ(results[qi]->GetInt16(i) != 0,
                (*dfa)->Matches(strings.GetString(i)))
          << QueryName(queries[qi]) << " row " << i;
    }
  }
}

TEST(FpgaDeviceTest, StructuralAndParallelFunctionalPathsAgree) {
  // The FIFO-mediated structural path (used below the parallel threshold)
  // and the host-parallel fast path must produce identical result BATs.
  AddressDataOptions opts;
  // Above RegexEngine::kParallelThreshold so the pool-enabled device
  // takes the host-parallel fast path; the pool-less one is structural.
  opts.num_records = 70'000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");
  DeviceConfig device;
  auto config =
      CompileRegexConfig(QueryPattern(EvalQuery::kQ2), device);
  ASSERT_TRUE(config.ok());

  Bat structural(ValueType::kInt16);
  ASSERT_TRUE(structural.AppendZeros(strings.count()).ok());
  {
    FpgaDevice fpga(device);  // no thread pool: structural FIFO path
    auto job = fpga.Submit(MakeJob(strings, &structural, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());
  }

  Bat parallel(ValueType::kInt16);
  ASSERT_TRUE(parallel.AppendZeros(strings.count()).ok());
  {
    ThreadPool pool(3);
    FpgaDevice fpga(device, nullptr, &pool);
    auto job = fpga.Submit(MakeJob(strings, &parallel, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());
  }
  for (int64_t i = 0; i < strings.count(); ++i) {
    EXPECT_EQ(structural.GetInt16(i), parallel.GetInt16(i)) << i;
  }
}

TEST(FpgaDeviceTest, FifthJobQueuesBehindBusyEngines) {
  auto bat = MakeStrings(std::vector<std::string>(
      5000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  for (int i = 0; i < 5; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();
  // The fifth job waited for an engine: positive queueing delay.
  EXPECT_GT(fpga.status(jobs[4])->QueueSeconds(), 0.0);
  EXPECT_EQ(fpga.status(jobs[0])->QueueSeconds(),
            fpga.status(jobs[0])->QueueSeconds());
}

TEST(FpgaDeviceTest, ThroughputScalingMatchesFig8Shape) {
  // Single-engine effective bandwidth is below the QPI cap; two engines
  // saturate the link; more engines add nothing (Fig. 8).
  auto bat = MakeStrings(std::vector<std::string>(
      50'000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));

  auto run_with_engines = [&](int engines) {
    DeviceConfig device;
    device.num_engines = engines;
    FpgaDevice fpga(device);
    auto config = CompileRegexConfig("Strasse", device);
    EXPECT_TRUE(config.ok());
    std::vector<std::unique_ptr<Bat>> results;
    for (int i = 0; i < engines; ++i) {
      auto result = std::make_unique<Bat>(ValueType::kInt16);
      EXPECT_TRUE(result->AppendZeros(bat->count()).ok());
      auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                               std::move(result)).get(),
                                     *config));
      EXPECT_TRUE(job.ok());
    }
    SimTime end = fpga.RunToIdle();
    // Aggregate throughput = jobs / makespan.
    return static_cast<double>(engines) / SecondsFromPicos(end);
  };

  double one = run_with_engines(1);
  double two = run_with_engines(2);
  double four = run_with_engines(4);
  EXPECT_GT(two, one * 1.05);   // slight gain from hiding latency
  EXPECT_LT(two, one * 1.35);
  EXPECT_NEAR(four, two, two * 0.10);  // flat beyond two engines
}

TEST(FpgaDeviceTest, TraceRecordsSchedulingTimeline) {
  auto bat = MakeStrings(std::vector<std::string>(
      20'000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  TraceLog trace;
  fpga.EnableTrace(&trace);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  for (int i = 0; i < 2; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
  }
  fpga.RunToIdle();

  auto enqueued = trace.Filter(TraceEvent::Kind::kJobEnqueued);
  auto dispatched = trace.Filter(TraceEvent::Kind::kJobDispatched);
  auto done = trace.Filter(TraceEvent::Kind::kJobDone);
  auto chunks = trace.Filter(TraceEvent::Kind::kChunkTransferred);
  ASSERT_EQ(enqueued.size(), 2u);
  ASSERT_EQ(dispatched.size(), 2u);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GT(chunks.size(), 2u);
  // Causality on the virtual clock.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_LE(enqueued[i].time, dispatched[i].time);
    EXPECT_LT(dispatched[i].time, done[i].time);
  }
  // The two jobs ran on different engines.
  EXPECT_NE(dispatched[0].engine_id, dispatched[1].engine_id);
  // Every chunk belongs to one of the dispatched jobs.
  for (const TraceEvent& c : chunks) {
    EXPECT_TRUE(c.job_id == dispatched[0].job_id ||
                c.job_id == dispatched[1].job_id);
  }
  EXPECT_FALSE(trace.ToString(5).empty());

  // Utilization summary mentions every engine and the QPI line.
  std::string summary = fpga.UtilizationSummary();
  EXPECT_NE(summary.find("engine 0"), std::string::npos);
  EXPECT_NE(summary.find("engine 3"), std::string::npos);
  EXPECT_NE(summary.find("qpi:"), std::string::npos);
}

TEST(FpgaDeviceTest, RejectsBadJobs) {
  DeviceConfig device;
  FpgaDevice fpga(device);
  JobParams params;
  params.count = -1;
  EXPECT_FALSE(fpga.Submit(std::move(params)).ok());

  JobParams params2;
  params2.count = 10;  // null pointers
  EXPECT_FALSE(fpga.Submit(std::move(params2)).ok());

  // A well-formed job without a compiled program.
  auto bat = MakeStrings({"Strasse"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(1).ok());
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  JobParams params3 = MakeJob(*bat, &result, *config);
  params3.program = nullptr;
  auto job = fpga.Submit(std::move(params3));
  EXPECT_TRUE(job.status().IsInvalidArgument()) << job.status().ToString();
}

TEST(FpgaDeviceTest, RejectsProgramBeyondDeviceGeometryAtSubmit) {
  // Compiled for a 32-state deployment, submitted to the default 8-state
  // device: the engines could not load it, so Submit refuses it.
  DeviceConfig wide;
  wide.max_states = 32;
  auto config = CompileRegexConfig("a.*b.*c.*d.*e.*f.*g.*h.*i.*j", wide);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_GT(config->states_used, DeviceConfig{}.max_states);

  DeviceConfig device;
  FpgaDevice fpga(device);
  auto bat = MakeStrings({"abcdefghij"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(1).ok());
  auto job = fpga.Submit(MakeJob(*bat, &result, *config));
  EXPECT_TRUE(job.status().IsCapacityExceeded()) << job.status().ToString();
}

TEST(FpgaDeviceTest, RunsTheProgramItIsHanded) {
  // The engine executes the job's program as compiled: a forced nfa-loop
  // compilation of a literal runs as nfa-loop, with results byte-equal to
  // the default literal kernel's.
  auto bat = MakeStrings({
      "John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
      "Anna|Meier|7 Berner Gasse|10115|Berlin",
      "Karl|Huber|1 Wiener Strasse|80331|Muenchen",
  });
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  PuKernelOptions forced;
  forced.force = PuKernelOptions::Force::kNfaLoop;
  auto nfa_loop = CompiledPuProgram::Compile(config->vector, device, forced);
  ASSERT_TRUE(nfa_loop.ok());

  Bat literal_result(ValueType::kInt16);
  Bat nfa_loop_result(ValueType::kInt16);
  ASSERT_TRUE(literal_result.AppendZeros(bat->count()).ok());
  ASSERT_TRUE(nfa_loop_result.AppendZeros(bat->count()).ok());
  auto literal_job = fpga.Submit(MakeJob(*bat, &literal_result, *config));
  JobParams params = MakeJob(*bat, &nfa_loop_result, *config);
  params.program = *nfa_loop;
  auto nfa_loop_job = fpga.Submit(std::move(params));
  ASSERT_TRUE(literal_job.ok());
  ASSERT_TRUE(nfa_loop_job.ok());
  fpga.RunToIdle();

  EXPECT_STREQ(fpga.status(*literal_job)->pu_kernel, "literal");
  EXPECT_STREQ(fpga.status(*nfa_loop_job)->pu_kernel, "nfa-loop");
  EXPECT_EQ(fpga.status(*nfa_loop_job)->matches, 2);
  EXPECT_EQ(std::memcmp(literal_result.tail_data(),
                        nfa_loop_result.tail_data(),
                        static_cast<size_t>(bat->count()) * 2),
            0);
}

TEST(FpgaDeviceTest, EnforcesSharedMemoryBounds) {
  SharedArena arena(4 * kSharedPageBytes);
  DeviceConfig device;
  FpgaDevice fpga(device, &arena);

  // BAT in plain malloc memory: the FPGA must refuse to touch it.
  auto bat = MakeStrings({"Strasse"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(1).ok());
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  auto job = fpga.Submit(MakeJob(*bat, &result, *config));
  EXPECT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsInvalidArgument());
}

}  // namespace
}  // namespace doppio
