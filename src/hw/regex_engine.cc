#include "hw/regex_engine.h"

#include <atomic>

#include <string>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/fifo.h"
#include "obs/json.h"
#include "hw/pu_kernel.h"
#include "hw/output_collector.h"
#include "hw/string_reader.h"

namespace doppio {

RegexEngine::RegexEngine(int id, const DeviceConfig& device, Arbiter* arbiter,
                         SimScheduler* scheduler, ThreadPool* pool)
    : id_(id),
      device_(device),
      arbiter_(arbiter),
      scheduler_(scheduler),
      pool_(pool) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "doppio.engine." + std::to_string(id) + ".";
  metric_jobs_ = registry.GetCounter(prefix + "jobs_executed",
                                     "jobs this engine completed");
  metric_bytes_ = registry.GetCounter(prefix + "bytes_streamed",
                                      "cache-line traffic this engine drove");
  metric_functional_mbps_ = registry.GetHistogram(
      "doppio.engine.functional_mbps", obs::MbpsBuckets(),
      "functional-pass host throughput per job, all engines");
  pus_.resize(static_cast<size_t>(device_.pus_per_engine));
}

Status RegexEngine::Start(JobParams* params, JobStatus* status,
                          std::function<void()> on_done) {
  if (busy_) return Status::Internal("engine already executing a job");
  busy_ = true;
  params_ = params;
  status_ = status;
  on_done_ = std::move(on_done);
  blocks_.clear();
  job_matches_ = 0;

  status_->engine_id = id_;
  status_->start_time = scheduler_->now();

  const FaultPlan& faults = device_.faults;
  if (faults.engine_stalled(id_)) {
    // Permanently stalled engine: the job is accepted but never finishes
    // and the engine never becomes idle again. The HAL's deadline wait
    // detects this (device drains with the done bit unset) and requeues
    // or degrades to software.
    status_->fault_flags.fetch_or(kJobFaultStalled,
                                  std::memory_order_release);
    return Status::OK();
  }
  if (faults.enabled && faults.Fires(FaultKind::kDrop,
                                     status_->queue_job_id,
                                     faults.drop_rate)) {
    // Dropped job: after the parameter fetch the job vanishes — no
    // functional results, no done bit. The engine frees itself so queued
    // work continues; the waiting UDF times out and retries.
    status_->fault_flags.fetch_or(kJobFaultDropped,
                                  std::memory_order_release);
    scheduler_->ScheduleAfter(PicosFromSeconds(device_.job_setup_sec),
                              [this] {
                                auto on_drop = std::move(on_done_);
                                params_->program.reset();  // see Finalize
                                busy_ = false;
                                params_ = nullptr;
                                status_ = nullptr;
                                if (on_drop) on_drop();
                              });
    return Status::OK();
  }

  Status st = RunFunctional(params_, status_, &blocks_);
  if (!st.ok()) {
    busy_ = false;
    return st;
  }
  BuildChunks();

  // Timing: job-parameter fetch + PU parametrization (~300 ns), then the
  // chunked reader pipeline.
  const int64_t param_lines =
      1 + static_cast<int64_t>(params_->program->config().bytes().size() +
                               kCacheLineBytes - 1) /
              kCacheLineBytes;
  SimTime fetch_done =
      arbiter_->Transfer(id_, scheduler_->now(), param_lines);
  SimTime setup_done =
      fetch_done + PicosFromSeconds(device_.job_setup_sec);
  pu_done_ = setup_done;
  SimTime delay = setup_done - scheduler_->now();
  scheduler_->ScheduleAfter(delay, [this] { ScheduleNextChunk(0); });
  return Status::OK();
}

void RegexEngine::BuildChunks() {
  chunks_.clear();
  for (const BlockTiming& block : blocks_) {
    // Offset phase (no PU payload), then the heap phase whose payload the
    // PUs consume, both split into interleavable chunks.
    int64_t remaining = block.offset_lines;
    while (remaining > 0) {
      int64_t lines = std::min(remaining, kChunkLines);
      chunks_.push_back(Chunk{lines, 0});
      remaining -= lines;
    }
    remaining = block.heap_lines;
    int64_t payload_left = block.string_bytes;
    while (remaining > 0) {
      int64_t lines = std::min(remaining, kChunkLines);
      // Attribute payload proportionally to the chunk's share of lines.
      int64_t payload =
          remaining <= kChunkLines
              ? payload_left
              : payload_left * lines / remaining;
      chunks_.push_back(Chunk{lines, payload});
      payload_left -= payload;
      remaining -= lines;
    }
  }
}

Status RegexEngine::RunFunctional(JobParams* params, JobStatus* status,
                                  std::vector<BlockTiming>* blocks) {
  // Every PU (and every worker thread) shares the job's immutable
  // program — they all evaluate the same expression; parallelism is
  // across tuples.
  const std::shared_ptr<const CompiledPuProgram>& program = params->program;
  // A set-compiled config carries its stream count redundantly in the job
  // parameters; a mismatch means the submitter sized the result block for
  // the wrong program.
  const int streams = program->num_patterns();
  if (params->streams != streams) {
    return Status::Internal("job streams do not match the compiled program");
  }
  for (ProcessingUnit& pu : pus_) {
    pu.Configure(program);
  }
  status->pu_kernel = PuKernelName(program->kernel());
  switch (program->kernel()) {
    case PuKernelKind::kLiteral: stats_.literal_jobs += 1; break;
    case PuKernelKind::kLazyDfa: stats_.lazy_dfa_jobs += 1; break;
    case PuKernelKind::kNfaLoop: stats_.nfa_loop_jobs += 1; break;
  }

  StringReader reader(*params);
  OutputCollector collector(*params);

  const bool parallel =
      pool_ != nullptr && params->count >= kParallelThreshold;

  Stopwatch functional_clock;
  int64_t functional_bytes = 0;
  while (reader.HasMore()) {
    DOPPIO_ASSIGN_OR_RETURN(StringReader::Block block, reader.ReadBlock());
    blocks->push_back(BlockTiming{block.offset_lines, block.heap_lines,
                                  block.string_bytes});

    const int npus = device_.pus_per_engine;
    if (params->timing_only) continue;  // traffic model only
    functional_bytes += block.string_bytes;
    std::vector<uint16_t> results(block.strings.size() *
                                  static_cast<size_t>(streams));
    if (!parallel && streams > 1) {
      // Set-compiled job on the structural path: the result lane carries
      // `streams` 16-bit indexes per string instead of one, so the FIFO
      // emulation below (one value per lane slot) does not apply; the
      // round-robin PU assignment alone preserves input order.
      const size_t n = block.strings.size();
      for (size_t i = 0; i < n; ++i) {
        pus_[i % static_cast<size_t>(npus)].ProcessStringSet(
            block.strings[i], &results[i * static_cast<size_t>(streams)]);
      }
    } else if (!parallel) {
      // Structural path (Fig. 4): the reader scatters strings round-robin
      // into cache-line-wide input FIFOs, PUs consume, and the Output
      // Collector gathers 16-bit indexes from the result FIFOs in the
      // same round-robin order — which is what guarantees results leave
      // in input order.
      constexpr size_t kFifoDepth = 8;  // strings buffered per PU
      std::vector<Fifo<std::string_view>> input_fifos;
      std::vector<Fifo<uint16_t>> result_fifos;
      input_fifos.reserve(static_cast<size_t>(npus));
      result_fifos.reserve(static_cast<size_t>(npus));
      for (int p = 0; p < npus; ++p) {
        input_fifos.emplace_back(kFifoDepth);
        result_fifos.emplace_back(kFifoDepth);
      }
      const size_t n = block.strings.size();
      size_t next_in = 0;
      size_t next_out = 0;
      while (next_out < n) {
        // Reader: scatter until the next target FIFO back-pressures.
        while (next_in < n &&
               input_fifos[next_in % static_cast<size_t>(npus)].Push(
                   block.strings[next_in])) {
          ++next_in;
        }
        // PUs: each consumes one buffered string if its result lane has
        // room.
        for (int p = 0; p < npus; ++p) {
          auto& in = input_fifos[static_cast<size_t>(p)];
          auto& res = result_fifos[static_cast<size_t>(p)];
          std::string_view s;
          if (!res.Full() && in.Pop(&s)) {
            bool pushed =
                res.Push(pus_[static_cast<size_t>(p)].ProcessString(s));
            DOPPIO_CHECK(pushed);
          }
        }
        // Collector: gather strictly round-robin (order preservation).
        while (next_out < n) {
          uint16_t r;
          if (!result_fifos[next_out % static_cast<size_t>(npus)].Pop(&r)) {
            break;
          }
          results[next_out] = r;
          ++next_out;
        }
      }
    } else {
      // Host-parallel fast path: each worker thread gets its own PU (own
      // dynamic state and lazy-DFA cache) referencing the shared compiled
      // program, and processes a contiguous range of the block. Every PU
      // runs the same program, so the results are identical to the
      // structural round-robin path.
      const int shards = pool_->num_threads();
      const size_t n = block.strings.size();
      pool_->ParallelFor(shards, [&](int shard) {
        const size_t begin =
            n * static_cast<size_t>(shard) / static_cast<size_t>(shards);
        const size_t end =
            n * (static_cast<size_t>(shard) + 1) / static_cast<size_t>(shards);
        if (begin == end) return;
        ProcessingUnit pu;
        pu.Configure(program);
        if (streams == 1) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = pu.ProcessString(block.strings[i]);
          }
        } else {
          for (size_t i = begin; i < end; ++i) {
            pu.ProcessStringSet(block.strings[i],
                                &results[i * static_cast<size_t>(streams)]);
          }
        }
      });
    }
    for (size_t i = 0; i < block.strings.size(); ++i) {
      DOPPIO_RETURN_NOT_OK(collector.AppendSet(
          &results[i * static_cast<size_t>(streams)], streams));
    }
  }

  status->functional_bytes = functional_bytes;
  status->functional_host_seconds = functional_clock.ElapsedSeconds();
  stats_.functional_bytes += functional_bytes;
  stats_.functional_seconds += status->functional_host_seconds;
  if (functional_bytes > 0) {
    metric_functional_mbps_->Observe(
        obs::SafeRate(static_cast<double>(functional_bytes) / 1e6,
                      status->functional_host_seconds));
  }

  status->matches = collector.matches();
  status->strings_processed =
      params->timing_only ? params->count : collector.results_written();
  job_matches_ = collector.matches();
  return Status::OK();
}

void RegexEngine::ScheduleNextChunk(size_t chunk_index) {
  if (chunk_index >= chunks_.size()) {
    Finalize();
    return;
  }
  const Chunk& chunk = chunks_[chunk_index];
  SimTime now = scheduler_->now();
  SimTime done = arbiter_->Transfer(id_, now, chunk.lines);
  if (trace_ != nullptr) {
    trace_->Record(TraceEvent{now, TraceEvent::Kind::kChunkTransferred,
                              status_->queue_job_id, id_, chunk.lines});
  }

  // PUs consume the payload at 1 byte/cycle each once its data arrived.
  if (chunk.pu_bytes > 0) {
    const double engine_rate = device_.EngineBytesPerSec();
    SimTime pu_time = PicosFromSeconds(
        static_cast<double>(chunk.pu_bytes) / engine_rate);
    pu_done_ = std::max(pu_done_, done) + pu_time;
  }

  // The reader issues the next chunk as soon as its window drains — it
  // does not wait for the PUs (the input FIFOs buffer ahead).
  SimTime next_issue = std::max(scheduler_->now(),
                                arbiter_->EngineReady(id_));
  scheduler_->ScheduleAt(next_issue, [this, chunk_index] {
    ScheduleNextChunk(chunk_index + 1);
  });
}

void RegexEngine::Finalize() {
  // Streaming is done; everything from here is result collection and the
  // status-line write.
  status_->collect_start_time = scheduler_->now();
  // Result lines plus the status-line write. A set job writes
  // count x streams indexes, so its result traffic scales with the
  // member count (streams is 1 everywhere on the paper's path).
  const int64_t result_lines =
      OutputCollector::TotalResultLines(params_->count * params_->streams);
  SimTime results_done =
      arbiter_->Transfer(id_, scheduler_->now(), result_lines + 1);
  SimTime finish = std::max(pu_done_, results_done);

  SimTime delay = std::max<SimTime>(0, finish - scheduler_->now());
  const FaultPlan& faults = device_.faults;
  if (faults.enabled && faults.Fires(FaultKind::kDelay,
                                     status_->queue_job_id,
                                     faults.delay_rate)) {
    status_->fault_flags.fetch_or(kJobFaultDelayed,
                                  std::memory_order_release);
    delay += PicosFromSeconds(faults.delay_seconds);
  }
  scheduler_->ScheduleAfter(delay, [this] {
    JobParams* params = params_;
    JobStatus* status = status_;
    auto on_done = std::move(on_done_);

    status->finish_time = scheduler_->now();
    int64_t heap_lines = 0;
    for (const BlockTiming& block : blocks_) heap_lines += block.heap_lines;
    status->bytes_streamed =
        (StringReader::TotalOffsetLines(params->count) +
         OutputCollector::TotalResultLines(params->count * params->streams) +
         heap_lines) *
        kCacheLineBytes;

    stats_.jobs_executed += 1;
    stats_.strings_processed += params->count;
    stats_.bytes_streamed += status->bytes_streamed;
    stats_.busy_time += status->finish_time - status->start_time;
    metric_jobs_->Add();
    metric_bytes_->Add(status->bytes_streamed);

    // The device keeps every job's parameter block after the job ends
    // (FpgaDevice::jobs_); dropping the program here keeps that history
    // from holding every program ever submitted alive.
    params->program.reset();
    busy_ = false;
    params_ = nullptr;
    status_ = nullptr;
    const FaultPlan& faults = device_.faults;
    if (faults.enabled && faults.Fires(FaultKind::kDoneLatency,
                                       status->queue_job_id,
                                       faults.done_latency_rate)) {
      // Late done-bit write: the job finished on time (finish_time is
      // already stamped) but the status-line store lands late — the
      // busy-waiting UDF only observes completion after the extra latency.
      status->fault_flags.fetch_or(kJobFaultDoneLatency,
                                   std::memory_order_release);
      scheduler_->ScheduleAfter(
          PicosFromSeconds(faults.done_latency_seconds),
          [scheduler = scheduler_, status, on_done = std::move(on_done)] {
            status->done_bit_time = scheduler->now();
            status->done.store(1, std::memory_order_release);
            if (on_done) on_done();
          });
      return;
    }
    status->done_bit_time = scheduler_->now();
    status->done.store(1, std::memory_order_release);
    if (on_done) on_done();
  });
}

}  // namespace doppio
