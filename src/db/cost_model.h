// Operator cost model and strategy chooser.
//
// The paper's discussion (§9) points out that a UDF is a black box to the
// query optimizer: it can neither cost the FPGA operator nor decide
// between hardware and software execution. This module provides exactly
// that missing piece — enabled by the hardware's *predictable*,
// complexity-independent cost function (property II of §5):
//  * software LIKE:        bytes / (scan throughput x cores)
//  * software REGEXP_LIKE: rows x per-tuple scalar-invocation cost / cores
//  * FPGA:                 the closed-form QPI/engine model (hw/perf_model)
//  * hybrid:               FPGA prefix + selectivity x automaton pass
// Scan throughputs are calibrated once per process by a quick
// micro-measurement, so predictions track the actual host.
#pragma once

#include <string>

#include "common/status.h"
#include "db/column_store.h"
#include "hw/config_compiler.h"
#include "hw/device_config.h"
#include "hw/kernel_backend.h"

namespace doppio {

struct TableStats {
  int64_t rows = 0;
  int64_t heap_bytes = 0;

  double avg_string_bytes() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(heap_bytes) /
                           static_cast<double>(rows);
  }
};

class OperatorCostModel {
 public:
  struct Calibration {
    double like_bytes_per_sec = 0;   // substring fast-path scan (one core)
    double dfa_bytes_per_sec = 0;    // automaton scan (one core)
    double simd_bytes_per_sec = 0;   // bit-parallel SIMD backend (one core)
    double regexp_tuple_seconds = 0; // scalar regex invocation per tuple
    int cpu_cores = 10;              // the machine model (paper: 10)
  };

  /// Calibrates the software throughputs with a short micro-measurement
  /// (a few milliseconds).
  static Calibration Measure(int cpu_cores = 10);

  OperatorCostModel(const DeviceConfig& device, Calibration calibration);

  // --- Per-strategy predictions (seconds for one query) --------------------
  double PredictLike(const TableStats& stats) const;
  double PredictRegexpLike(const TableStats& stats) const;
  /// Device execution of a compiled configuration. The caller compiles
  /// (CompileRegexConfig fails with CapacityExceeded when the pattern
  /// cannot be mapped), so holding `config` means the pattern fits; the
  /// closed-form cost does not depend on which pattern it is.
  double PredictFpga(const RegexConfig& config, const TableStats& stats) const;
  /// `prefix_selectivity`: expected fraction the CPU post-processes.
  Result<double> PredictHybrid(const std::string& pattern,
                               const TableStats& stats,
                               double prefix_selectivity = 0.2) const;

  struct HostPrediction {
    double seconds = 0;
    /// Which host backend the registry would run (drives the throughput
    /// the prediction used).
    BackendId backend = BackendId::kCpuScalar;
  };
  /// Predicted one-core host execution of `config.program` through the
  /// kernel-backend registry (the scheduler's kCpuProgram route).
  Result<HostPrediction> PredictHostProgram(const RegexConfig& config,
                                            const TableStats& stats) const;

  struct Choice {
    StringFilterSpec::Op op = StringFilterSpec::Op::kRegexpLike;
    double predicted_seconds = 0;
    std::string reason;
    /// Non-empty when the chosen operator needs the pattern in a
    /// different syntax (e.g. a substring regex rewritten to a LIKE
    /// pattern for the fast path).
    std::string rewritten_pattern;
  };

  /// Picks the cheapest strategy for `spec` over a table with `stats`.
  /// For kAuto specs the pattern is in the regex dialect. `fpga_available`
  /// reflects whether a HAL is attached.
  Choice Choose(const StringFilterSpec& spec, const TableStats& stats,
                bool fpga_available) const;

  const Calibration& calibration() const { return calibration_; }

 private:
  DeviceConfig device_;
  Calibration calibration_;
};

}  // namespace doppio
