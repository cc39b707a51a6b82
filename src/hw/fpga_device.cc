#include "hw/fpga_device.h"

#include <cstdio>

#include "common/logging.h"
#include "hw/config_compiler.h"
#include "obs/metrics.h"

namespace doppio {

namespace {
obs::Counter& JobsSubmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.device.jobs_submitted", "jobs accepted by Submit()");
  return *c;
}
obs::Counter& SubmitFaultsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.device.submit_faults_injected",
      "submissions refused by the injected-fault lottery");
  return *c;
}
obs::Counter& WaitDeadlineCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.device.wait_deadline_exceeded",
      "deadline waits that expired before the done bit");
  return *c;
}
obs::Counter& WaitLostCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.device.wait_job_lost",
      "waits that drained the device with the done bit unset");
  return *c;
}
}  // namespace

FpgaDevice::FpgaDevice(const DeviceConfig& config, SharedArena* arena,
                       ThreadPool* pool, int device_id)
    : config_(config),
      arena_(arena),
      device_id_(device_id),
      qpi_(config),
      arbiter_(&qpi_, config.num_engines, config.arbiter_batch_lines) {
  std::vector<RegexEngine*> raw;
  for (int i = 0; i < config_.num_engines; ++i) {
    engines_.push_back(std::make_unique<RegexEngine>(i, config_, &arbiter_,
                                                     &scheduler_, pool));
    raw.push_back(engines_.back().get());
  }
  // The descriptor ring lives in the shared region when one exists; a
  // heap ring backs device-only tests.
  auto queue = SharedJobQueue::Create(arena_, /*capacity=*/64);
  if (!queue.ok()) {
    DOPPIO_LOG(Warning) << "shared job queue allocation failed ("
                        << queue.status().ToString()
                        << "); falling back to host memory";
    queue = SharedJobQueue::Create(nullptr, /*capacity=*/64);
    DOPPIO_CHECK(queue.ok());
  }
  distributor_ = std::make_unique<JobDistributor>(
      &scheduler_, config_, std::move(raw), std::move(*queue));
}

void FpgaDevice::EnableTrace(TraceLog* trace) {
  distributor_->set_trace(trace);
  for (auto& engine : engines_) engine->set_trace(trace);
}

std::string FpgaDevice::UtilizationSummary() const {
  std::string out;
  const double total = SecondsFromPicos(scheduler_.now());
  for (size_t i = 0; i < engines_.size(); ++i) {
    const EngineStats& stats = engines_[i]->stats();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "engine %zu: %lld jobs, %.1f MB streamed, %.1f%% busy\n",
                  i, static_cast<long long>(stats.jobs_executed),
                  static_cast<double>(stats.bytes_streamed) / 1e6,
                  total > 0
                      ? 100.0 * SecondsFromPicos(stats.busy_time) / total
                      : 0.0);
    out += line;
  }
  char qpi_line[120];
  std::snprintf(qpi_line, sizeof(qpi_line),
                "qpi: %.1f MB total, %.2f GB/s achieved\n",
                static_cast<double>(qpi_.total_bytes()) / 1e6,
                qpi_.AchievedBytesPerSec(scheduler_.now()) / 1e9);
  out += qpi_line;
  return out;
}

void FpgaDevice::PublishDsm(DeviceStatusMemory* dsm) {
  dsm->afu_id.store(kRegexAfuId, std::memory_order_relaxed);
  dsm->job_queue_addr.store(
      reinterpret_cast<uint64_t>(distributor_->queue().ring_address()),
      std::memory_order_relaxed);
  distributor_->AttachDsm(dsm);
  dsm->handshake_complete.store(1, std::memory_order_release);
}

Status FpgaDevice::ValidateJob(const JobParams& params) const {
  if (params.count < 0) return Status::InvalidArgument("negative count");
  if (params.streams < 1 || params.streams > 64) {
    return Status::InvalidArgument("job streams out of range [1, 64]");
  }
  if (params.offset_width != 4) {
    return Status::NotImplemented("only 32-bit offsets are deployed");
  }
  if (params.count > 0 &&
      (params.offsets == nullptr || params.heap == nullptr ||
       params.result == nullptr)) {
    return Status::InvalidArgument("null job pointer");
  }
  // The program must fit this device's geometry: a job the engines
  // cannot load is refused here, not at dispatch.
  if (params.program == nullptr) {
    return Status::InvalidArgument("job has no compiled program");
  }
  DOPPIO_RETURN_NOT_OK(CheckCapacity(params.program->nfa(), config_));
  if (arena_ != nullptr && params.count > 0) {
    // The FPGA's pagetable covers only the pinned shared region; touching
    // anything else would be an unrecoverable fault (§4.2.1).
    if (!arena_->Contains(params.offsets, params.count * 4) ||
        !arena_->Contains(params.heap, params.heap_bytes) ||
        !arena_->Contains(params.result,
                          params.count * 2 * params.streams)) {
      return Status::InvalidArgument(
          "job memory outside the CPU-FPGA shared region");
    }
  }
  return Status::OK();
}

Result<JobId> FpgaDevice::Submit(JobParams params,
                                 std::function<void()> on_done) {
  DOPPIO_RETURN_NOT_OK(ValidateJob(params));
  if (config_.faults.enabled) {
    const uint64_t seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
    if (config_.faults.Fires(FaultKind::kSubmit, seq,
                             config_.faults.submit_failure_rate)) {
      SubmitFaultsCounter().Add();
      return Status::Unavailable("injected transient submit failure");
    }
  }
  std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
  auto record = std::make_unique<JobRecord>();
  record->params = std::move(params);
  record->status.device_id = device_id_;
  JobRecord* raw = record.get();
  JobId id = static_cast<JobId>(jobs_.size());
  jobs_.push_back(std::move(record));
  Status st =
      distributor_->Enqueue(&raw->params, &raw->status, std::move(on_done));
  if (!st.ok()) {
    jobs_.pop_back();
    return st;
  }
  JobsSubmittedCounter().Add();
  return id;
}

JobStatus* FpgaDevice::status(JobId id) {
  std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
  if (id < 0 || id >= static_cast<JobId>(jobs_.size())) return nullptr;
  return &jobs_[static_cast<size_t>(id)]->status;
}

SimTime FpgaDevice::RunToIdle() {
  std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
  return scheduler_.Run();
}

Result<SimTime> FpgaDevice::WaitForJob(JobId id) {
  JobStatus* st = status(id);
  if (st == nullptr) return Status::NotFound("unknown job id");
  // Busy-wait on the done bit (the prototype has no interrupts). Waiting
  // threads take turns driving the virtual clock, one event per lock hold,
  // so concurrent clients make joint progress.
  while (st->done.load(std::memory_order_acquire) == 0) {
    std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
    if (st->done.load(std::memory_order_acquire) != 0) break;
    if (!scheduler_.RunOne()) {
      return Status::Internal("device idle but job not done");
    }
  }
  if (!st->error.ok()) return st->error;
  return st->finish_time;
}

Result<SimTime> FpgaDevice::WaitForJobUntil(JobId id, SimTime deadline) {
  JobStatus* st = status(id);
  if (st == nullptr) return Status::NotFound("unknown job id");
  while (st->done.load(std::memory_order_acquire) == 0) {
    std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
    // Re-check under the mutex: another waiter may have driven the clock
    // (and set this job's done bit) between our lock-free peek and the
    // re-lock. Without this, a done bit landing in that window would be
    // misreported as DeadlineExceeded below.
    if (st->done.load(std::memory_order_acquire) != 0) break;
    const SimTime next = scheduler_.NextEventTime();
    if (next == SimScheduler::kNoEvent) {
      // No pending virtual-time work can ever finish this job: it was
      // dropped or its engine is stalled.
      WaitLostCounter().Add();
      return Status::Unavailable("device idle but job not done (job lost)");
    }
    if (next > deadline) {
      // Peek before running: a completion scheduled exactly at the
      // deadline must count as on time, and we must not burn virtual time
      // past the deadline executing events that cannot help this job.
      WaitDeadlineCounter().Add();
      return Status::DeadlineExceeded("job exceeded its wait deadline");
    }
    scheduler_.RunOne();
  }
  if (!st->error.ok()) return st->error;
  return st->finish_time;
}

Status FpgaDevice::CancelJob(JobId id) {
  JobStatus* st = status(id);
  if (st == nullptr) return Status::NotFound("unknown job id");
  st->cancelled.store(1, std::memory_order_release);
  return Status::OK();
}

void FpgaDevice::AdvanceVirtualTime(SimTime delay) {
  if (delay <= 0) return;
  std::lock_guard<std::recursive_mutex> lock(sim_mutex_);
  const SimTime target = scheduler_.now() + delay;
  scheduler_.RunUntil(target);
}

}  // namespace doppio
