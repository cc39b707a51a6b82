// Software-side compiler: SQL pattern -> configuration vector, with the
// deployed geometry's capacity checks (paper §6.4, §7.9).
//
// This is the fpga_regex_get_config() step of the UDF pseudo-code: it runs
// on the CPU (measured at < 1 µs in the paper) and fails with
// CapacityExceeded when the pattern needs more character matchers or
// state-graph nodes than the deployment provides — the signal that drives
// hybrid execution.
//
// It is also where a configuration's program lifetime starts: each
// RegexConfig carries the one CompiledPuProgram (hw/pu_kernel.h) of its
// vector, and the device, host slices and cost model all use that
// program instead of compiling the bytes again.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hw/config_vector.h"
#include "hw/device_config.h"
#include "hw/pu_kernel.h"
#include "regex/matcher.h"
#include "regex/pattern_ast.h"
#include "regex/token_nfa.h"

namespace doppio {

struct RegexConfig {
  ConfigVector vector;
  TokenNfa nfa;  // decoded view, used by the simulator and for stats
  /// The vector's one compilation, built with it and shared by everything
  /// that executes it: device jobs (JobParams::program), host slices and
  /// the cost model. Never null in a successfully compiled config.
  std::shared_ptr<const CompiledPuProgram> program;
  int states_used = 0;
  int matchers_used = 0;
  /// CPU time spent generating the vector (the Fig. 10 "Config. Gen." bar);
  /// building `program` afterwards is not included.
  double compile_seconds = 0;
};

/// Compiles a regex-dialect pattern against a deployment geometry.
Result<RegexConfig> CompileRegexConfig(std::string_view pattern,
                                       const DeviceConfig& device,
                                       const CompileOptions& options = {});

/// Same, from an already-parsed AST.
Result<RegexConfig> CompileRegexConfig(const AstNode& ast,
                                       const DeviceConfig& device,
                                       const CompileOptions& options = {});

/// Checks an extracted token NFA against a geometry.
Status CheckCapacity(const TokenNfa& nfa, const DeviceConfig& device);

/// Compiles a *set* of already-compiled member configs into one combined
/// config: the union NFA with tagged accepts (docs/PATTERN_SETS.md).
/// Member k's matches surface on output stream k. Fails with
/// CapacityExceeded when the merged token/trigger/transition program does
/// not fit one PU (token dedup across members is applied first) — the
/// signal that sends the batch back to the multi-pass planner.
Result<RegexConfig> CompileRegexSetConfig(
    const std::vector<const TokenNfa*>& members, const DeviceConfig& device);

}  // namespace doppio
