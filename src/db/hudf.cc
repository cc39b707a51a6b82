#include "db/hudf.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "regex/dfa_matcher.h"

namespace doppio {

namespace {

obs::Counter& FallbackRowsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.db.fallback_rows",
      "rows re-matched in software after the hardware path gave up");
  return *c;
}

/// Snapshot of one completed job's lifecycle stamps for the tracer.
obs::JobTraceRecord MakeJobRecord(obs::TraceId trace,
                                  const JobStatus& status) {
  obs::JobTraceRecord record;
  record.trace_id = trace;
  record.queue_job_id = status.queue_job_id;
  record.engine_id = status.engine_id;
  record.device_id = status.device_id;
  record.enqueue_time = status.enqueue_time;
  record.dispatch_time = status.dispatch_time;
  record.start_time = status.start_time;
  record.collect_start_time = status.collect_start_time;
  record.done_bit_time = status.done_bit_time;
  record.finish_time = status.finish_time;
  record.retries = status.retries;
  record.fault_flags = status.fault_flags.load(std::memory_order_acquire);
  record.matches = status.matches;
  record.strings_processed = status.strings_processed;
  record.bytes_streamed = status.bytes_streamed;
  record.pu_kernel = status.pu_kernel;
  return record;
}

/// One slice of a scan request: a device job, or a host re-run once the
/// device gave up on it.
struct Slice {
  JobParams params;  // kept alive across resubmissions
  FpgaJob job;       // valid while in flight
  JobOutcome outcome;
  size_t request = 0;  // index into the request list
  int device = 0;      // pool member that owns the slice
  bool fallback = false;
};

/// Per-(request, device) virtual-time extent. Device clocks are separate
/// domains, so a request's hardware phase is the MAX of its per-device
/// extents, never a difference of stamps from two different clocks.
struct ClockExtent {
  SimTime first_enqueue = std::numeric_limits<SimTime>::max();
  SimTime last_finish = 0;
  bool any = false;
};

/// Demultiplexes a set-compiled query's row-major staging results
/// (out.result: count x streams 16-bit values) into per-stream columns
/// (FpgaBatchQuery::set_outputs). No-op at streams == 1. Byte-wise copy:
/// the raw device values pass through untouched, so every stream is
/// bit-identical to running its member pattern alone.
Status DemuxSetOutputs(Hal* hal, FpgaBatchQuery& q) {
  if (q.streams <= 1) return Status::OK();
  const int streams = q.streams;
  // q.rows/q.first_row were normalized at validation: the admission
  // snapshot span, not whatever the input has grown to by demux time.
  const int64_t n = q.rows - q.first_row;
  q.set_outputs.clear();
  q.set_outputs.resize(static_cast<size_t>(streams));
  const uint8_t* staging = q.out.result->tail_data();
  for (int k = 0; k < streams; ++k) {
    HudfResult& out = q.set_outputs[static_cast<size_t>(k)];
    DOPPIO_ASSIGN_OR_RETURN(
        out.result, Bat::New(ValueType::kInt16, n, hal->bat_allocator()));
    DOPPIO_RETURN_NOT_OK(out.result->AppendZeros(n));
    uint8_t* dst = out.result->mutable_tail_data();
    int64_t matched = 0;
    for (int64_t i = 0; i < n; ++i) {
      const uint8_t lo = staging[(i * streams + k) * 2];
      const uint8_t hi = staging[(i * streams + k) * 2 + 1];
      dst[i * 2] = lo;
      dst[i * 2 + 1] = hi;
      if ((lo | hi) != 0) ++matched;
    }
    // The shared scan's phase/trace stats, with this stream's own count.
    out.stats = q.out.stats;
    out.stats.rows_matched = matched;
  }
  return Status::OK();
}

}  // namespace

Result<HudfResult> RunDfaScanInSoftware(const Bat& input,
                                        std::string_view pattern,
                                        const CompileOptions& options,
                                        int64_t rows) {
  HudfResult out;
  Stopwatch cpu_watch;
  const int64_t n =
      rows < 0 ? input.count() : std::min<int64_t>(rows, input.count());
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<DfaMatcher> matcher,
                          DfaMatcher::Compile(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(out.result, Bat::New(ValueType::kInt16, n));
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    MatchResult m = matcher->Find(input.GetString(i));
    int16_t value =
        m.matched ? static_cast<int16_t>(std::min<int32_t>(
                        std::max<int32_t>(m.end, 1), 32767))
                  : 0;
    if (m.matched) ++matched;
    DOPPIO_RETURN_NOT_OK(out.result->AppendInt16(value));
  }
  out.stats.strategy = "software";
  out.stats.rows_scanned = n;
  out.stats.rows_matched = matched;
  out.stats.udf_software_seconds = cpu_watch.ElapsedSeconds();
  return out;
}

Result<HudfResult> RegexpHost(const DeviceConfig& device, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options) {
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }
  Stopwatch udf_watch;
  HudfResult out;
  out.stats.rows_scanned = input.count();

  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          CompileRegexConfig(pattern, device, options));
  out.stats.config_gen_seconds = config.compile_seconds;

  DOPPIO_ASSIGN_OR_RETURN(out.result,
                          Bat::New(ValueType::kInt16, input.count()));
  DOPPIO_RETURN_NOT_OK(out.result->AppendZeros(input.count()));

  HostSliceInfo info;
  if (input.count() > 0) {
    JobParams params;
    params.offsets = input.tail_data();
    params.heap = input.heap()->data();
    params.result = out.result->mutable_tail_data();
    params.count = input.count();
    params.offset_width = static_cast<int32_t>(input.offset_width());
    params.heap_bytes = input.heap()->size_bytes();
    params.program = config.program;
    DOPPIO_ASSIGN_OR_RETURN(int64_t matches, RunHostSlice(params, &info));
    out.stats.rows_matched = matches;
  } else {
    info.backend = BackendRegistry::Global().ChooseHost(*config.program).id();
  }
  out.stats.strategy = std::string("host-") + BackendName(info.backend);
  out.stats.pu_kernel = info.kernel;
  out.stats.udf_software_seconds =
      std::max(0.0, udf_watch.ElapsedSeconds() - config.compile_seconds);
  return out;
}

Status ExecuteScans(Hal* hal, const std::vector<ScanRequest>& requests) {
  DevicePool* pool = hal->pool();
  obs::Tracer& tracer = obs::Tracer::Global();
  const RetryPolicy& policy = hal->retry_policy();
  const int num_devices = pool->size();
  const auto at = [](auto& v, int i) -> auto& {
    return v[static_cast<size_t>(i)];
  };

  // Slice every request horizontally (paper §7.5): by default one slice
  // per engine across the pool, each with its own heap extent — up to the
  // next slice's first string (the heap is written in row order), or the
  // view's end for the last slice.
  Stopwatch hal_watch;
  std::vector<Slice> slices;
  for (size_t r = 0; r < requests.size(); ++r) {
    const ScanRequest& req = requests[r];
    if (req.rows == 0) continue;
    const int64_t partitions = std::min<int64_t>(
        req.partitions > 0 ? req.partitions : pool->total_engines(),
        req.rows);
    const int64_t chunk = (req.rows + partitions - 1) / partitions;
    const uint32_t* offsets = reinterpret_cast<const uint32_t*>(req.offsets);
    for (int64_t first = 0; first < req.rows; first += chunk) {
      Slice& slice = slices.emplace_back();
      slice.request = r;
      JobParams& params = slice.params;
      params.count = std::min<int64_t>(chunk, req.rows - first);
      params.offsets = req.offsets + first * req.offset_width;
      params.offset_width = req.offset_width;
      params.heap = req.heap;
      const int64_t end = first + params.count;
      params.heap_bytes = end < req.rows ? static_cast<int64_t>(offsets[end])
                                         : req.heap_bytes;
      params.result = req.result + first * 2 * req.streams;
      params.streams = req.streams;
      params.program = req.config->program;
      params.timing_only = req.timing_only;
    }
  }

  // Placement: apportion the slices across the pool proportional to each
  // member's free engines, then deal them round-robin so every device
  // sees a mix of requests rather than one request's whole tail.
  std::vector<std::deque<Slice*>> pending(static_cast<size_t>(num_devices));
  {
    std::vector<int> quota = pool->ShardCounts(static_cast<int>(slices.size()));
    int d = 0;
    for (Slice& slice : slices) {
      while (at(quota, d) == 0) d = (d + 1) % num_devices;
      at(pending, d).push_back(&slice);
      --at(quota, d);
      d = (d + 1) % num_devices;
    }
  }

  int64_t remaining = static_cast<int64_t>(slices.size());
  std::vector<std::deque<Slice*>> inflight(static_cast<size_t>(num_devices));
  std::vector<ClockExtent> extents(requests.size() *
                                   static_cast<size_t>(num_devices));
  // A device whose last resolution degraded to software is *suspect*: it
  // keeps draining work already queued to it but does not steal more
  // until it completes a slice in hardware again, so a stalled member does
  // not steal back the backlog just rebalanced away from it.
  std::vector<char> suspect(static_cast<size_t>(num_devices), 0);
  // Keep device `d` loaded up to its engine count, so a backlog stays
  // stealable; a device whose own backlog ran dry steals queued slices
  // from the most backlogged member (ties to the lowest index). With one
  // device there is nothing to steal: every slice is submitted before the
  // first await, the paper's single-device order. A submit that degrades
  // resolves its slice at once (it runs on the host after the drain).
  auto top_up = [&](int d) -> Status {
    const size_t cap =
        num_devices > 1
            ? static_cast<size_t>(pool->device(d)->config().num_engines)
            : slices.size();
    while (at(inflight, d).size() < cap) {
      if (at(pending, d).empty()) {
        if (at(suspect, d)) return Status::OK();  // no stealing
        int victim = -1;
        size_t victim_backlog = 0;
        for (int v = 0; v < num_devices; ++v) {
          if (v != d && at(pending, v).size() > victim_backlog) {
            victim = v;
            victim_backlog = at(pending, v).size();
          }
        }
        if (victim < 0) return Status::OK();  // nothing left anywhere
        // Steal from the BACK of the victim's queue: the victim keeps its
        // next-up work, the thief takes the tail it would reach last.
        at(pending, d).push_back(at(pending, victim).back());
        at(pending, victim).pop_back();
        pool->NoteSteal(victim, d);
      }
      Slice* slice = at(pending, d).front();
      at(pending, d).pop_front();
      slice->device = d;
      Result<FpgaJob> job = SubmitJobWithRetry(
          pool->device(d), slice->params, policy, &slice->outcome);
      if (job.ok()) {
        slice->job = *job;
        at(inflight, d).push_back(slice);
        pool->NoteInflight(d, +1);
      } else if (IsFallbackEligible(job.status())) {
        slice->fallback = true;
        at(suspect, d) = 1;
        --remaining;
      } else {
        return job.status();
      }
    }
    return Status::OK();
  };

  for (int d = 0; d < num_devices; ++d) DOPPIO_RETURN_NOT_OK(top_up(d));
  const double hal_seconds = hal_watch.ElapsedSeconds();

  // Drain: visit devices round-robin, await one in-flight slice per visit
  // (a device's clock advances only while the host waits on it), then top
  // the device back up. Deterministic: placement, visit order and steal
  // choice depend only on queue sizes, never on host timing.
  Stopwatch wait_watch;
  while (remaining > 0) {
    bool progress = false;
    for (int d = 0; d < num_devices && remaining > 0; ++d) {
      if (at(inflight, d).empty()) DOPPIO_RETURN_NOT_OK(top_up(d));
      if (at(inflight, d).empty()) continue;
      Slice* slice = at(inflight, d).front();
      at(inflight, d).pop_front();
      pool->NoteInflight(d, -1);
      const ScanRequest& req = requests[slice->request];
      Status st = AwaitJobWithRecovery(pool->device(d), &slice->job,
                                       slice->params, policy,
                                       &slice->outcome);
      if (st.ok()) {
        const JobStatus& status = slice->job.status();
        if (req.trace != obs::kInvalidTraceId) {
          tracer.RecordJob(MakeJobRecord(req.trace, status));
        }
        ClockExtent& extent =
            extents[slice->request * static_cast<size_t>(num_devices) +
                    static_cast<size_t>(d)];
        extent.any = true;
        extent.first_enqueue =
            std::min(extent.first_enqueue, status.enqueue_time);
        extent.last_finish = std::max(extent.last_finish, status.finish_time);
        QueryStats& stats = *req.stats;
        stats.rows_matched += status.matches;
        if (stats.pu_kernel.empty()) stats.pu_kernel = status.pu_kernel;
        stats.functional_bytes += status.functional_bytes;
        stats.functional_seconds += status.functional_host_seconds;
        at(suspect, d) = 0;
      } else if (IsFallbackEligible(st)) {
        slice->fallback = true;
        at(suspect, d) = 1;
        // Fault feedback: this device just burned its whole retry budget
        // on a slice. Deal its queued backlog round-robin to the other
        // members instead of feeding more work into a failing device.
        int thief = d;
        while (num_devices > 1 && !at(pending, d).empty()) {
          thief = (thief + 1) % num_devices;
          if (thief == d) thief = (thief + 1) % num_devices;
          at(pending, thief).push_back(at(pending, d).front());
          at(pending, d).pop_front();
          pool->NoteSteal(d, thief);
        }
      } else {
        return st;
      }
      --remaining;
      progress = true;
      DOPPIO_RETURN_NOT_OK(top_up(d));
    }
    // Every device idle with slices unresolved would be a livelock; the
    // loop above always resolves at least one slice per pass.
    DOPPIO_CHECK(progress);
  }
  const double drain_seconds = wait_watch.ElapsedSeconds();

  // Slices no device could complete degrade to the host matchers: a query
  // must not fail for a fault the CPU can absorb.
  for (Slice& slice : slices) {
    const ScanRequest& req = requests[slice.request];
    QueryStats& stats = *req.stats;
    pool->NoteSlice(slice.device, slice.params.count);
    stats.job_retries += slice.outcome.retries;
    if (slice.outcome.ok && slice.outcome.fault_seen) {
      stats.faults_recovered += 1;
    }
    if (!slice.fallback) continue;
    if (req.trace != obs::kInvalidTraceId) {
      tracer.RecordInstant(req.trace, "sw_fallback",
                           pool->device(slice.device)->now());
    }
    DOPPIO_ASSIGN_OR_RETURN(int64_t matches, RunHostSlice(slice.params));
    stats.rows_matched += matches;
    stats.fallback_rows += slice.params.count;
    FallbackRowsCounter().Add(slice.params.count);
  }

  // The wave's host phases are shared by its requests (a simulation
  // artifact either way); the hardware phase is per clock domain.
  for (size_t r = 0; r < requests.size(); ++r) {
    const ScanRequest& req = requests[r];
    if (req.rows == 0) continue;
    double hw_seconds = 0;
    for (int d = 0; d < num_devices; ++d) {
      const ClockExtent& extent =
          extents[r * static_cast<size_t>(num_devices) +
                  static_cast<size_t>(d)];
      if (!extent.any) continue;
      hw_seconds = std::max(
          hw_seconds,
          SecondsFromPicos(extent.last_finish - extent.first_enqueue));
    }
    req.stats->hw_seconds = hw_seconds;
    req.stats->hal_seconds = hal_seconds;
    req.stats->sim_host_seconds = drain_seconds;
  }
  return Status::OK();
}

Status RegexpFpgaBatch(Hal* hal,
                       const std::vector<FpgaBatchQuery*>& queries) {
  Stopwatch udf_watch;
  obs::Tracer& tracer = obs::Tracer::Global();
  std::vector<obs::TraceId> traces;
  traces.reserve(queries.size());
  // On any fatal (non-fallback) error, close the spans already opened so
  // the tracer's per-query bookkeeping stays balanced.
  auto fail = [&](Status st) {
    for (obs::TraceId trace : traces) tracer.EndQuery(trace);
    return st;
  };

  // Validate every query, open its span, allocate its result BAT.
  std::vector<ScanRequest> requests;
  requests.reserve(queries.size());
  for (FpgaBatchQuery* q : queries) {
    if (q == nullptr || q->input == nullptr || q->config == nullptr) {
      return fail(Status::InvalidArgument("null batch query"));
    }
    const Bat& input = *q->input;
    if (input.type() != ValueType::kString) {
      return fail(
          Status::InvalidArgument("regex job input must be a string BAT"));
    }
    if (q->streams < 1 || q->streams > 64) {
      return fail(
          Status::InvalidArgument("batch query streams out of range [1, 64]"));
    }
    traces.push_back(tracer.BeginQuery(q->span_name));
    // Normalize the admission snapshot: -1 (or an over-count) means "all
    // rows as of now". From here on only q->rows is read, so a concurrent
    // append cannot change the scanned extent mid-wave.
    if (q->rows < 0 || q->rows > input.count()) q->rows = input.count();
    q->first_row = std::clamp<int64_t>(q->first_row, 0, q->rows);
    const int64_t span = q->rows - q->first_row;
    QueryStats& stats = q->out.stats;
    stats.trace_id = traces.back();
    // Partitioning is internal to the operator; a set-compiled config
    // surfaces as its own strategy so demuxed streams are attributable.
    stats.strategy = q->streams > 1 ? "fpga-set" : "fpga";
    stats.rows_scanned = span;

    // streams > 1: the result BAT is the row-major staging area for every
    // stream; DemuxSetOutputs splits it per member after the wave.
    auto result =
        Bat::New(ValueType::kInt16, span * q->streams, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    q->out.result = std::move(*result);
    Status st = q->out.result->AppendZeros(span * q->streams);
    if (!st.ok()) return fail(st);

    ScanRequest& req = requests.emplace_back();
    req.offsets = input.tail_data() + q->first_row * input.offset_width();
    req.offset_width = static_cast<int32_t>(input.offset_width());
    req.heap = input.heap()->data();
    req.heap_bytes =
        q->rows < input.count()
            ? static_cast<int64_t>(reinterpret_cast<const uint32_t*>(
                  input.tail_data())[q->rows])
            : input.heap()->size_bytes();
    req.rows = span;
    req.result = q->out.result->mutable_tail_data();
    req.config = q->config;
    req.streams = q->streams;
    req.partitions = q->partitions;
    req.timing_only = q->timing_only;
    req.trace = traces.back();
    req.stats = &stats;
  }

  Status st = ExecuteScans(hal, requests);
  if (!st.ok()) return fail(st);

  for (size_t i = 0; i < queries.size(); ++i) {
    FpgaBatchQuery& q = *queries[i];
    QueryStats& stats = q.out.stats;
    if (stats.fallback_rows > 0) stats.strategy += "+sw_fallback";
    stats.udf_software_seconds =
        std::max(0.0, udf_watch.ElapsedSeconds() - stats.hal_seconds -
                          stats.sim_host_seconds);
    Status demux = DemuxSetOutputs(hal, q);
    if (st.ok()) st = demux;
    tracer.EndQuery(traces[i]);
  }
  return st;
}

namespace {

Result<HudfResult> RunSingle(Hal* hal, const Bat& input,
                             const RegexConfig& config, int partitions,
                             const char* span_name) {
  FpgaBatchQuery query;
  query.input = &input;
  query.config = &config;
  query.partitions = partitions;
  query.span_name = span_name;
  DOPPIO_RETURN_NOT_OK(RegexpFpgaBatch(hal, {&query}));
  return std::move(query.out);
}

Result<HudfResult> CompileAndRunSingle(Hal* hal, const Bat& input,
                                       std::string_view pattern,
                                       const CompileOptions& options,
                                       int partitions, const char* span_name) {
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          hal->CompileConfig(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(
      HudfResult out, RunSingle(hal, input, config, partitions, span_name));
  out.stats.config_gen_seconds = config.compile_seconds;
  return out;
}

}  // namespace

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         const RegexConfig& config,
                                         int partitions) {
  return RunSingle(hal, input, config, partitions, "regexp_fpga_partitioned");
}

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         std::string_view pattern,
                                         const CompileOptions& options,
                                         int partitions) {
  return CompileAndRunSingle(hal, input, pattern, options, partitions,
                             "regexp_fpga_partitioned");
}

Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options) {
  return CompileAndRunSingle(hal, input, pattern, options, 1, "regexp_fpga");
}

Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              const RegexConfig& config) {
  return RunSingle(hal, input, config, 1, "regexp_fpga");
}

}  // namespace doppio
