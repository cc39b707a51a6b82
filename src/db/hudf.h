// The Hardware User Defined Function: REGEXP_FPGA (paper §4.1).
//
// Mirrors the paper's regexp_fpga() pseudo-code: convert the pattern into
// a configuration vector, allocate the result BAT, create the FPGA job
// through the HAL, busy-wait on the done bit, hand the result BAT back.
// The returned column is of type short: nonzero = 1-based position of the
// match's last character, zero = no match.
//
// Every device scan — the HUDF, the partitioned and batched variants and
// the streamed segment windows (store/stream_executor.h) — runs through
// one slice executor, ExecuteScans: slice, place across the DevicePool,
// submit, await, steal, and degrade per slice to the host matchers.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "bat/bat.h"
#include "common/status.h"
#include "db/engine_stats.h"
#include "hal/hal.h"
#include "hw/kernel_backend.h"
#include "hw/pu_kernel.h"
#include "regex/matcher.h"

namespace doppio {

struct HudfResult {
  std::unique_ptr<Bat> result;  // kInt16, one entry per input string
  QueryStats stats;             // udf/config/hal/hw phase breakdown
};

/// Runs the REGEXP_FPGA HUDF over a string BAT. The pattern uses the regex
/// dialect (LIKE patterns are translated before reaching this layer).
/// Fails with CapacityExceeded when the pattern does not fit the deployed
/// geometry — callers fall back to hybrid or software execution.
/// One job over the whole BAT (a batch of one with a single partition):
/// the paper's single-job path, placed on the pool member with the most
/// free engines — device 0 on an idle pool.
Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options = {});

/// Variant reusing an already-compiled configuration (amortizes compile
/// time across concurrent clients issuing the same query).
Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              const RegexConfig& config);

/// Single-query intra-operator parallelism (paper §7.5: "the FPGA
/// parallelizes by horizontally partitioning the data to the four Regex
/// Engines"): the BAT is split into `partitions` slices, one job per
/// engine, all sharing the string heap; results land in disjoint slices
/// of one result BAT. 0 = one partition per engine across the pool.
Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         const RegexConfig& config,
                                         int partitions = 0);

/// Pattern-level convenience for the partitioned variant.
Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         std::string_view pattern,
                                         const CompileOptions& options = {},
                                         int partitions = 0);

/// One query of a cross-query batched submission (the multi-tenant
/// scheduler's coalescing unit, src/sched). Each query keeps its own input
/// BAT, result BAT and QueryStats — results are demultiplexed per query by
/// construction because every job slice writes a disjoint result range.
struct FpgaBatchQuery {
  const Bat* input = nullptr;
  const RegexConfig* config = nullptr;
  /// Slices for this query (0 = one per deployed engine). Batched callers
  /// typically spread the engines across the batch instead.
  int partitions = 0;
  /// Tracer span name for this query's lifecycle.
  const char* span_name = "regexp_fpga_batch";
  /// Simulator-only throughput knob (see JobParams::timing_only): derive
  /// exact traffic/timing but skip the functional pass (results zeroed).
  bool timing_only = false;
  /// Admission-time row snapshot: scan only the first `rows` rows of
  /// `input` (-1 = whatever `input->count()` is at execution time). The
  /// scheduler pins this at Submit so an append landing between admission
  /// and wave execution cannot leak post-snapshot rows into the result.
  /// Normalized to min(rows, input->count()) during validation.
  int64_t rows = -1;
  /// First row to scan (partial-extent execution): the device scans rows
  /// [first_row, rows) and `out.result` holds exactly that span. 0 = the
  /// classic full scan, byte-identical to before this field existed. The
  /// scheduler sets it when a cached prefix block already answers
  /// [0, first_row) so only a grown column's appended tail is re-scanned.
  /// Clamped to [0, rows] during validation.
  int64_t first_row = 0;
  /// Output streams of `config` (1..64). 1 = the classic single-pattern
  /// scan, byte-identical to before streams existed. > 1 = `config` is a
  /// set-compiled program (CompileRegexSetConfig) with that many tagged
  /// accept streams: `out.result` then holds count x streams 16-bit
  /// values row-major (the raw device layout) and `set_outputs` the
  /// per-stream demux. Must equal the compiled program's pattern count.
  int streams = 1;
  HudfResult out;  // populated by RegexpFpgaBatch
  /// streams > 1 only: set_outputs[k] is member k's own kInt16 column
  /// over the input rows — bit-identical to running that member alone.
  /// Each carries the wave's shared stats with its own rows_matched.
  std::vector<HudfResult> set_outputs;
};

/// Shared partitioned submission across queries, the only batch entry
/// point: every query is validated, its admission snapshot normalized and
/// its result BAT allocated, then all of them run as one ExecuteScans
/// wave, so the queries overlap across the engines in virtual time (the
/// paper's Fig. 11 multi-client scenario, coalesced into one wave instead
/// of raced). Each query degrades per slice to the software matchers; a
/// batch of one is RegexpFpgaPartitioned.
Status RegexpFpgaBatch(Hal* hal, const std::vector<FpgaBatchQuery*>& queries);

/// One scan for ExecuteScans: a raw view of a string column in the shared
/// arena (BAT layout: heap-relative offsets plus the heap it indexes) and
/// the result range its 16-bit match values land in.
struct ScanRequest {
  const uint8_t* offsets = nullptr;  // the view's first offset entry
  int32_t offset_width = sizeof(uint32_t);
  const uint8_t* heap = nullptr;
  /// Heap extent of the view: the offset of the row after its last one,
  /// or the heap end when the view reaches the column's end.
  int64_t heap_bytes = 0;
  int64_t rows = 0;
  uint8_t* result = nullptr;  // rows x streams int16 values, row-major
  const RegexConfig* config = nullptr;
  int streams = 1;     // output streams of `config` (1..64)
  int partitions = 0;  // slices; 0 = one per engine across the pool
  bool timing_only = false;  // see JobParams::timing_only
  uint64_t trace = 0;        // tracer span for job records and instants
  /// Receives the scan's rows_matched, pu_kernel, functional bytes and
  /// seconds, job_retries, faults_recovered and fallback_rows (added
  /// to), and hw_seconds, hal_seconds and sim_host_seconds (assigned;
  /// left alone for a zero-row view). Must not be null.
  QueryStats* stats = nullptr;
};

/// The slice executor behind every device scan. Slices each request
/// horizontally (per-slice heap extents), places the slices across the
/// HAL's DevicePool with ShardCounts, submits with retry and awaits with
/// recovery. On a pool of more than one device, in-flight slices are
/// capped per device at its engine count so a backlog stays stealable: a
/// device that runs dry steals queued slices from the most backlogged
/// member, and a device that gives up on a slice hands its backlog to the
/// others. With one device every slice is submitted before the first
/// await. Slices the device could not complete re-run on the host
/// (doppio.db.fallback_rows, "sw_fallback" trace instant). hw_seconds is
/// the maximum per-clock-domain extent of the request's jobs. Placement,
/// stealing and results are deterministic for a given pool state. Fails
/// only on errors the host cannot absorb; spans are the caller's.
Status ExecuteScans(Hal* hal, const std::vector<ScanRequest>& requests);

/// Full-pattern software scan over a string BAT on the lazy-DFA matcher:
/// the hybrid planner's software strategy and the scheduler's CPU route
/// for patterns that exceed the deployed geometry. Fills result (int16,
/// values capped at 32767), strategy ("software"), row counts and the
/// software phase time. `rows` >= 0 scans only the first `rows` rows
/// (the scheduler's admission snapshot); -1 = all rows.
Result<HudfResult> RunDfaScanInSoftware(const Bat& input,
                                        std::string_view pattern,
                                        const CompileOptions& options = {},
                                        int64_t rows = -1);

/// Runs a geometry-eligible pattern entirely on the host through the
/// kernel-backend registry (hw/kernel_backend.h) — the execution path of
/// DOPPIO_FORCE_BACKEND=scalar|simd, and a device-free way to run the
/// compiled-program matchers. Results are bit-identical to the hardware
/// functional pass; stats.strategy records "host-<backend>" and
/// stats.pu_kernel the kernel that executed.
Result<HudfResult> RegexpHost(const DeviceConfig& device, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options = {});

/// Admission gate the multi-tenant scheduler (src/sched) implements. When
/// one is supplied to a db-layer executor, regex offload goes through the
/// scheduler — session quotas, fair sharing, cross-query batching —
/// instead of submitting straight at the device. Null gate = the paper's
/// direct-submit path, byte-identical to before the scheduler existed.
class RegexAdmissionGate {
 public:
  virtual ~RegexAdmissionGate() = default;
  virtual Result<HudfResult> ExecuteRegex(const Bat& input,
                                          std::string_view pattern,
                                          const CompileOptions& options) = 0;
};

}  // namespace doppio
