// Software-side job handle (paper §4.2.2): wraps the job descriptor and
// lets the UDF busy-wait on the done bit and read execution statistics.
#pragma once

#include "common/status.h"
#include "hw/fpga_device.h"
#include "hw/job.h"

namespace doppio {

class FpgaJob {
 public:
  FpgaJob() = default;
  FpgaJob(FpgaDevice* device, JobId id) : device_(device), id_(id) {}

  bool valid() const { return device_ != nullptr; }
  JobId id() const { return id_; }
  /// The device this job was submitted to — with a DevicePool, jobs on
  /// different members carry different devices (and clock domains), so
  /// lifecycle code must derive waits and deadlines from the job's own
  /// device, never from an ambient "the device" handle.
  FpgaDevice* device() const { return device_; }

  /// Busy-waits on the done bit (the prototype has no FPGA-to-CPU
  /// interrupts, §4.2.2). Advances the device's virtual clock.
  Status Wait();

  /// Deadline-bounded busy-wait: gives up once the virtual clock reaches
  /// `deadline` (absolute picoseconds) or the device drains with the job
  /// unfinished. Returns DeadlineExceeded / Unavailable respectively —
  /// both retryable through the job lifecycle (hal/job_lifecycle.h).
  Status Wait(SimTime deadline);

  /// Abandons the job: a queued descriptor is skipped by the distributor.
  Status Cancel();

  /// The caller is done reading this job: the device frees its blocks
  /// once it no longer touches them (FpgaDevice::Retire). status() must
  /// not be called afterwards.
  void Retire();

  /// Non-blocking poll of the done bit.
  bool Done() const;

  /// Status/statistics block; stable once Done().
  const JobStatus& status() const;

  /// Virtual-time duration of the hardware execution (queue + engine).
  double HwSeconds() const;

 private:
  FpgaDevice* device_ = nullptr;
  JobId id_ = -1;
};

}  // namespace doppio
