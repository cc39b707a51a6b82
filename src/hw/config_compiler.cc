#include "hw/config_compiler.h"

#include "common/stopwatch.h"
#include "regex/pattern_parser.h"
#include "regex/token_extractor.h"

namespace doppio {

Status CheckCapacity(const TokenNfa& nfa, const DeviceConfig& device) {
  const int matchers = nfa.TotalMatchers();
  if (matchers > device.max_chars) {
    return Status::CapacityExceeded(
        "pattern needs " + std::to_string(matchers) +
        " character matchers, deployment has " +
        std::to_string(device.max_chars));
  }
  const int states = nfa.NumStates();
  if (states > device.max_states) {
    return Status::CapacityExceeded(
        "pattern needs " + std::to_string(states) +
        " states, deployment has " + std::to_string(device.max_states));
  }
  return Status::OK();
}

namespace {

// Vector generation: the part of CompileRegexConfig that compile_seconds
// times.
Result<RegexConfig> GenerateConfig(const AstNode& ast,
                                   const DeviceConfig& device,
                                   const CompileOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, ExtractTokenNfa(ast, options));
  DOPPIO_RETURN_NOT_OK(CheckCapacity(nfa, device));
  DOPPIO_ASSIGN_OR_RETURN(ConfigVector vector, ConfigVector::Encode(nfa));

  RegexConfig config;
  config.states_used = nfa.NumStates();
  config.matchers_used = nfa.TotalMatchers();
  config.vector = std::move(vector);
  config.nfa = std::move(nfa);
  return config;
}

// The one CompiledPuProgram of a generated vector. Called after the
// caller's stopwatch stopped, so compile_seconds stays the paper's
// Config. Gen. bar.
Result<RegexConfig> WithProgram(RegexConfig config,
                                const DeviceConfig& device) {
  DOPPIO_ASSIGN_OR_RETURN(config.program,
                          CompiledPuProgram::Compile(config.vector, device));
  return config;
}

}  // namespace

Result<RegexConfig> CompileRegexConfig(const AstNode& ast,
                                       const DeviceConfig& device,
                                       const CompileOptions& options) {
  Stopwatch watch;
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          GenerateConfig(ast, device, options));
  config.compile_seconds = watch.ElapsedSeconds();
  return WithProgram(std::move(config), device);
}

Result<RegexConfig> CompileRegexSetConfig(
    const std::vector<const TokenNfa*>& members, const DeviceConfig& device) {
  Stopwatch watch;
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, BuildUnionNfa(members));
  DOPPIO_RETURN_NOT_OK(CheckCapacity(nfa, device));
  if (nfa.NumStates() > 64) {
    // The simulator's program limit; checked before encoding so the
    // scheduler gets CapacityExceeded and falls back to the multi-pass
    // planner.
    return Status::CapacityExceeded("pattern-set union exceeds 64 states");
  }
  DOPPIO_ASSIGN_OR_RETURN(ConfigVector vector, ConfigVector::Encode(nfa));

  RegexConfig config;
  config.states_used = nfa.NumStates();
  config.matchers_used = nfa.TotalMatchers();
  config.vector = std::move(vector);
  config.nfa = std::move(nfa);
  config.compile_seconds = watch.ElapsedSeconds();
  return WithProgram(std::move(config), device);
}

Result<RegexConfig> CompileRegexConfig(std::string_view pattern,
                                       const DeviceConfig& device,
                                       const CompileOptions& options) {
  Stopwatch watch;
  // '^'/'$' anchors become compile flags; the extractor rejects them
  // (the hardware searches unanchored), routing such patterns to software.
  DOPPIO_ASSIGN_OR_RETURN(AnchoredPattern parsed,
                          ParseAnchoredPattern(pattern));
  DOPPIO_ASSIGN_OR_RETURN(
      RegexConfig config,
      GenerateConfig(*parsed.ast, device, parsed.Options(options)));
  config.compile_seconds = watch.ElapsedSeconds();
  return WithProgram(std::move(config), device);
}

}  // namespace doppio
