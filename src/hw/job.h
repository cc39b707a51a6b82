// Job structures shared between software (HAL) and the simulated FPGA
// (paper §4.2.2). The HAL allocates these in the CPU-FPGA shared region,
// wraps their addresses in a job descriptor and enqueues the descriptor;
// the Job Distributor hands them to an idle Regex Engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/sim_scheduler.h"
#include "common/status.h"

namespace doppio {

using JobId = int64_t;

class CompiledPuProgram;

/// Parameter structure (one per job, written by the HAL, read by the
/// engine): pointers into shared memory plus the compiled configuration.
struct JobParams {
  const uint8_t* offsets = nullptr;  // offset BAT tail (uint32 entries)
  const uint8_t* heap = nullptr;     // string heap base
  uint8_t* result = nullptr;         // result BAT tail (int16 entries)
  int64_t count = 0;                 // number of strings
  int32_t offset_width = 4;          // bytes per offset
  int64_t heap_bytes = 0;            // heap extent (for prefetch sizing)
  /// The configuration's compiled program (RegexConfig::program). The
  /// engine fetches program->config() with the parameters and executes
  /// the program as is: the device never recompiles.
  std::shared_ptr<const CompiledPuProgram> program;
  /// Tagged output streams of a set-compiled config (must equal the
  /// program's num_patterns). The result block holds count*streams 16-bit
  /// indexes, row-major per string: string i's stream p lands at
  /// result[(i*streams + p) * 2]. 1 for ordinary single-pattern jobs.
  int32_t streams = 1;

  /// Simulator-only knob for throughput experiments: skip the functional
  /// matching pass (results are zeroed) while still deriving the exact
  /// cache-line traffic and timing from the real offsets/heap. Never set
  /// on correctness paths.
  bool timing_only = false;
};

/// Fault-observability bits in JobStatus::fault_flags (simulator-only:
/// which injected fault, if any, hit this job attempt).
enum JobFaultBits : uint32_t {
  kJobFaultDropped = 1u << 0,      // done bit never set; engine freed
  kJobFaultStalled = 1u << 1,      // landed on a permanently stalled engine
  kJobFaultDelayed = 1u << 2,      // completion event delayed
  kJobFaultDoneLatency = 1u << 3,  // done-bit write landed late
};

/// Status structure the engine updates while executing (read by the UDF's
/// busy-wait loop) plus execution statistics (paper step 8).
struct JobStatus {
  std::atomic<uint32_t> done{0};

  /// Set by the HAL when it gives up on this attempt (deadline expired and
  /// the job was requeued). The Job Distributor skips cancelled
  /// descriptors so an abandoned attempt is never double-executed.
  std::atomic<uint32_t> cancelled{0};

  /// Injected-fault observability (JobFaultBits). Atomic so the waiting
  /// host thread may inspect it while the virtual-time side writes it.
  std::atomic<uint32_t> fault_flags{0};

  /// Resubmissions the HAL performed before this attempt succeeded
  /// (written by the job lifecycle once the done bit is set).
  int32_t retries = 0;

  /// Set (before the done bit) if the engine rejected or aborted the job.
  Status error;

  /// Descriptor id assigned when the job enters the shared queue.
  uint64_t queue_job_id = 0;

  // Statistics, valid once done != 0.
  int64_t matches = 0;
  int64_t strings_processed = 0;
  int64_t bytes_streamed = 0;       // heap + offset + result traffic

  // Functional-pass observability (simulator implementation detail, not
  // modeled hardware time): which compiled kernel served the job, the
  // payload it matched, and the host wall-clock it took.
  const char* pu_kernel = "";       // PuKernelName() literal
  int64_t functional_bytes = 0;
  double functional_host_seconds = 0;
  int64_t engine_id = -1;
  /// Pool index of the device that executed this job (0 for a standalone
  /// device) — metric/trace attribution across a DevicePool.
  int32_t device_id = 0;
  SimTime enqueue_time = 0;         // virtual time entering the job queue
  SimTime dispatch_time = 0;        // distributor picked up the descriptor
  SimTime start_time = 0;           // assigned to an engine
  SimTime collect_start_time = 0;   // streaming finished, collecting output
  SimTime done_bit_time = 0;        // done-bit store landed
  SimTime finish_time = 0;          // done bit set
  double ExecSeconds() const {
    return SecondsFromPicos(finish_time - start_time);
  }
  double QueueSeconds() const {
    return SecondsFromPicos(start_time - enqueue_time);
  }
};

}  // namespace doppio
