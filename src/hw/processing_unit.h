// Processing Unit: the runtime-parameterizable NFA circuit (paper §6).
//
// One PU consumes one input byte per PU clock cycle, regardless of pattern
// complexity — the property that makes the operator's cost function
// trivial. Internally it is the bank of chainable Character Matchers plus
// the fully connected State Graph; both are loaded from the configuration
// vector at job start (~300 ns, modelled in the engine timing).
//
// The loaded program lives in an immutable CompiledPuProgram shared by all
// PUs of an engine (hw/pu_kernel.h); only the per-string dynamic state is
// per-PU. ConsumeByte is the cycle-exact interpreter: byte i of a string
// is processed in PU cycle i. ProcessString produces the same 16-bit
// result through the cheapest compiled kernel (literal substring search,
// lazy DFA, or the interpreter's bit-parallel loop) while preserving the
// constant-consumption cycle accounting — a pure functional-path
// optimization; simulated timing never observes which kernel ran.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "hw/pu_kernel.h"
#include "regex/token_nfa.h"

namespace doppio {

class ProcessingUnit {
 public:
  /// Loads a compiled program into the Tokens/Triggers/Transitions
  /// registers. The program was checked against the geometry when it was
  /// compiled; all 16 PUs of an engine and every worker thread share it.
  void Configure(std::shared_ptr<const CompiledPuProgram> program);

  /// Resets the state graph for a new input string.
  void StartString();

  /// Clocks one input byte through the matchers and the state graph.
  void ConsumeByte(uint8_t byte);

  /// The 16-bit match index after the bytes so far: 1-based position of the
  /// first match's last character, or 0. Saturates at 65535 for longer
  /// strings (the hardware result lane is 16 bits wide).
  uint16_t MatchIndex() const { return match_index_; }
  bool Matched() const { return match_index_ != 0; }

  /// Per-stream match indexes of a set-compiled program (index =
  /// pattern_tag; size = num_patterns). Each stream saturates at 65535
  /// independently. For single-pattern programs this is {MatchIndex()}.
  const std::vector<uint16_t>& MatchIndexes() const { return match_indexes_; }

  /// Convenience: full string through the PU. Dispatches to the compiled
  /// kernel; the result and the cycle count are identical to a
  /// StartString + ConsumeByte loop over every byte.
  uint16_t ProcessString(std::string_view input);

  /// Set-program variant: fills match[0 .. num_patterns) with each tagged
  /// stream's first-accept index. Stream p is bit-identical to
  /// ProcessString with member p compiled alone; cycle accounting is one
  /// pass over the string regardless of the member count — the whole point
  /// of set compilation. Identical to ProcessString for one pattern.
  void ProcessStringSet(std::string_view input, uint16_t* match);

  /// Total bytes consumed since Configure — equals PU clock cycles spent.
  int64_t cycles() const { return cycles_; }

  bool configured() const { return program_ != nullptr; }
  const TokenNfa& program() const { return program_->nfa(); }
  const CompiledPuProgram* compiled_program() const { return program_.get(); }
  PuKernelKind kernel() const { return program_->kernel(); }

 private:
  /// The bit-parallel interpreter over the whole string (general case and
  /// lazy-DFA overflow fallback). Touches only `progress_`; leaves the
  /// streaming state (`active_`, `position_`, `cycles_`) to the caller.
  uint16_t RunNfaLoop(std::string_view input);
  /// Set variant of the interpreter loop: per-stream first accepts.
  void RunNfaLoopSet(std::string_view input, uint16_t* match);
  /// Ordered substring stages (LIKE '%s1%s2%...%' shape).
  uint16_t RunLiteral(std::string_view input) const;

  std::shared_ptr<const CompiledPuProgram> program_;
  /// Lazy-DFA transition memo; per-PU so worker threads never contend.
  std::unique_ptr<LazyDfaCache> dfa_;

  // Per-string dynamic state.
  std::vector<uint64_t> progress_;     // per edge
  uint64_t active_ = 0;                // active states bitmask
  int64_t position_ = 0;
  uint16_t match_index_ = 0;
  std::vector<uint16_t> match_indexes_;  // per output stream
  uint64_t matched_streams_ = 0;         // streams already latched
  uint64_t all_streams_ = 1;             // (1 << num_patterns) - 1

  int64_t cycles_ = 0;
};

}  // namespace doppio
