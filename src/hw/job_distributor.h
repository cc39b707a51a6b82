// Job Distributor (paper §4.2.2, step 6 of Fig. 3): watches the shared
// memory job queue and hands each job descriptor to the next idle Regex
// Engine. Jobs wait in FIFO order when all engines are busy — this queueing
// is what shapes the multi-client throughput experiments (Fig. 11).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "hal/aal.h"
#include "hal/job_queue.h"
#include "hw/job.h"
#include "hw/regex_engine.h"
#include "hw/trace.h"

namespace doppio {

class JobDistributor {
 public:
  /// `queue` is the shared-memory descriptor ring the HAL writes into.
  JobDistributor(SimScheduler* scheduler, DeviceConfig device,
                 std::vector<RegexEngine*> engines,
                 std::unique_ptr<SharedJobQueue> queue);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(JobDistributor);

  /// Enqueues a job descriptor at the scheduler's current virtual time.
  /// `on_done` fires (in virtual time) when the engine sets the done bit.
  /// `on_release` fires once the device no longer touches the
  /// descriptor's parameter and status blocks: after completion (also of
  /// a dropped job), or when a cancelled descriptor is skipped.
  /// Fails with ResourceExhausted when the shared ring is full — the ring
  /// never grows past its capacity; the HAL surfaces the back-pressure to
  /// the caller (retry lifecycle / scheduler), which waits out the drain.
  Status Enqueue(JobParams* params, JobStatus* status,
                 std::function<void()> on_done,
                 std::function<void()> on_release = nullptr);

  /// Mirrors diagnostics into the Device Status Memory once a session is
  /// established.
  void AttachDsm(DeviceStatusMemory* dsm);

  /// Records scheduling events into `trace` (may be null to disable).
  void set_trace(TraceLog* trace) { trace_ = trace; }

  const SharedJobQueue& queue() const { return *queue_; }
  int64_t jobs_dispatched() const { return jobs_dispatched_; }

 private:
  void TryDispatch();
  void UpdateIdleMirror();

  SimScheduler* scheduler_;
  DeviceConfig device_;
  std::vector<RegexEngine*> engines_;
  std::unique_ptr<SharedJobQueue> queue_;
  struct Callbacks {
    std::function<void()> on_done;
    std::function<void()> on_release;
  };
  /// Removes and returns a descriptor's callbacks (empty when none).
  Callbacks TakeCallbacks(uint64_t job_id);
  std::map<uint64_t, Callbacks> callbacks_;
  uint64_t next_job_id_ = 1;
  int64_t jobs_dispatched_ = 0;
  DeviceStatusMemory* dsm_ = nullptr;
  TraceLog* trace_ = nullptr;
};

}  // namespace doppio
