#include "hw/pu_kernel.h"

#include <algorithm>
#include <bit>

#include "hw/config_compiler.h"
#include "regex/charset_analysis.h"

namespace doppio {

const char* PuKernelName(PuKernelKind kind) {
  switch (kind) {
    case PuKernelKind::kLiteral:
      return "literal";
    case PuKernelKind::kLazyDfa:
      return "lazy-dfa";
    case PuKernelKind::kNfaLoop:
      return "nfa-loop";
  }
  return "?";
}

namespace {

// The substring-search shape: a chain-shaped state graph (shared analysis
// in regex/token_nfa.h AnalyzeChainShape) whose every token chain further
// reduces to a plain needle. Such a program is exactly
// LIKE '%n_0%n_1%...%': ordered, non-overlapping occurrences, and greedy
// earliest matching yields the same first-accept position as the NFA
// semantics.
bool AnalyzeLiteralStages(const TokenNfa& nfa,
                          const std::vector<int>& chain_order,
                          std::vector<CompiledPuProgram::LiteralStage>* out) {
  if (chain_order.empty()) return false;
  std::vector<CompiledPuProgram::LiteralStage> stages;
  for (int state_index : chain_order) {
    const HwState& state = nfa.states[static_cast<size_t>(state_index)];
    std::optional<TokenLiteral> literal = TokenToLiteral(
        nfa.tokens[static_cast<size_t>(state.trigger_tokens[0])]);
    if (!literal.has_value()) return false;
    stages.push_back(CompiledPuProgram::LiteralStage{
        BoyerMooreMatcher(std::move(literal->needle),
                          literal->case_insensitive),
        literal->case_insensitive});
  }
  *out = std::move(stages);
  return true;
}

}  // namespace

Result<std::shared_ptr<const CompiledPuProgram>> CompiledPuProgram::Compile(
    const ConfigVector& config, const DeviceConfig& device,
    const PuKernelOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, config.Decode());
  // A real PU has exactly max_chars matchers and max_states graph nodes;
  // configurations beyond that cannot be loaded.
  DOPPIO_RETURN_NOT_OK(CheckCapacity(nfa, device));
  if (nfa.NumStates() > 64) {
    return Status::CapacityExceeded("simulator supports up to 64 states");
  }

  std::shared_ptr<CompiledPuProgram> program(new CompiledPuProgram());
  program->config_ = config;
  program->nfa_ = std::move(nfa);
  const TokenNfa& prog_nfa = program->nfa_;

  program->num_patterns_ = prog_nfa.NumPatterns();
  program->pattern_accept_masks_.assign(
      static_cast<size_t>(program->num_patterns_), 0);

  std::vector<uint64_t> pred_masks(prog_nfa.states.size(), 0);
  for (size_t s = 0; s < prog_nfa.states.size(); ++s) {
    const HwState& state = prog_nfa.states[s];
    for (int p : state.pred_states) {
      pred_masks[s] |= uint64_t{1} << p;
    }
    if (state.latch) program->latch_mask_ |= uint64_t{1} << s;
    if (state.accept) {
      program->accept_mask_ |= uint64_t{1} << s;
      program->pattern_accept_masks_[static_cast<size_t>(state.pattern_tag)] |=
          uint64_t{1} << s;
    }

    for (int t : state.trigger_tokens) {
      const HwToken& token = prog_nfa.tokens[static_cast<size_t>(t)];
      Edge edge;
      edge.state = static_cast<int>(s);
      edge.chain_len = token.length();
      edge.start_gated = state.pred_states.empty();
      edge.fired_bit = uint64_t{1} << (edge.chain_len - 1);
      edge.pred_mask = pred_masks[s];
      for (int b = 0; b < 256; ++b) {
        uint64_t mask = 0;
        for (int j = 0; j < edge.chain_len; ++j) {
          if (token.chain[static_cast<size_t>(j)].Test(
                  static_cast<uint8_t>(b))) {
            mask |= uint64_t{1} << j;
          }
        }
        edge.byte_mask[static_cast<size_t>(b)] = mask;
      }
      program->edges_.push_back(std::move(edge));
    }
  }

  // Byte-equivalence classes, and the per-class edge masks the lazy DFA
  // steps with (every byte of a class has identical masks by definition).
  program->num_byte_classes_ =
      ComputeByteClasses(prog_nfa, &program->byte_classes_);
  program->class_edge_masks_.assign(
      static_cast<size_t>(program->num_byte_classes_), {});
  for (int b = 0; b < 256; ++b) {
    auto& masks = program->class_edge_masks_[program->byte_classes_[
        static_cast<size_t>(b)]];
    if (!masks.empty() || program->edges_.empty()) continue;
    masks.reserve(program->edges_.size());
    for (const Edge& edge : program->edges_) {
      masks.push_back(edge.byte_mask[static_cast<size_t>(b)]);
    }
  }

  program->max_dfa_states_ = std::max(1, options.max_dfa_states);

  program->chain_states_ =
      AnalyzeChainShape(prog_nfa).value_or(std::vector<int>{});
  if (program->num_patterns_ == 1) {
    program->members_chain_shaped_ = !program->chain_states_.empty();
  } else {
    program->members_chain_shaped_ = true;
    for (int p = 0; p < program->num_patterns_; ++p) {
      Result<TokenNfa> member = ExtractMemberNfa(prog_nfa, p);
      if (!member.ok() || !AnalyzeChainShape(*member).has_value()) {
        program->members_chain_shaped_ = false;
        break;
      }
    }
  }

  // Escape-byte set of the reset state: with no state active, only a
  // start-gated edge whose first chain position matches the byte can set
  // any register bit (`regs' = gate & mask_bit0`). The reset state never
  // accepts (Validate guarantees a non-empty chain before any accept), so
  // host backends may skip bytes outside this set while reset.
  {
    std::array<char, 256> escapes{};
    for (const Edge& edge : program->edges_) {
      if (!edge.start_gated) continue;
      for (int b = 0; b < 256; ++b) {
        if ((edge.byte_mask[static_cast<size_t>(b)] & 1) != 0) {
          escapes[static_cast<size_t>(b)] = 1;
        }
      }
    }
    for (int b = 0; b < 256; ++b) {
      if (escapes[static_cast<size_t>(b)] != 0) {
        program->start_bytes_.push_back(static_cast<uint8_t>(b));
      }
    }
  }

  switch (options.force) {
    case PuKernelOptions::Force::kNfaLoop:
      program->kernel_ = PuKernelKind::kNfaLoop;
      break;
    case PuKernelOptions::Force::kLazyDfa:
      program->kernel_ = PuKernelKind::kLazyDfa;
      break;
    case PuKernelOptions::Force::kAuto:
      program->kernel_ = AnalyzeLiteralStages(prog_nfa, program->chain_states_,
                                              &program->literal_stages_)
                             ? PuKernelKind::kLiteral
                             : PuKernelKind::kLazyDfa;
      break;
  }
  return std::shared_ptr<const CompiledPuProgram>(std::move(program));
}

LazyDfaCache::LazyDfaCache(const CompiledPuProgram* program)
    : program_(program) {
  Intern(std::vector<uint64_t>(program_->edges().size() + 1, 0));  // id 0
}

int32_t LazyDfaCache::Intern(std::vector<uint64_t> regs) {
  auto it = ids_.find(regs);
  if (it != ids_.end()) return it->second;
  if (regs_.size() >= static_cast<size_t>(program_->max_dfa_states())) {
    return -1;  // cache full and the state is new: caller falls back
  }
  const int32_t id = static_cast<int32_t>(regs_.size());
  accept_.push_back((regs.back() & program_->accept_mask()) != 0 ? 1 : 0);
  uint64_t tags = 0;
  if (accept_.back() != 0) {
    for (int p = 0; p < program_->num_patterns(); ++p) {
      if ((regs.back() & program_->pattern_accept_mask(p)) != 0) {
        tags |= uint64_t{1} << p;
      }
    }
  }
  accept_tags_.push_back(tags);
  trans_.insert(trans_.end(),
                static_cast<size_t>(program_->num_byte_classes()), -1);
  regs_.push_back(regs);
  ids_.emplace(std::move(regs), id);
  return id;
}

int32_t LazyDfaCache::Step(int32_t from, int byte_class) {
  const std::vector<CompiledPuProgram::Edge>& edges = program_->edges();
  const std::vector<uint64_t>& masks = program_->class_edge_masks(byte_class);
  const size_t nedges = edges.size();

  std::vector<uint64_t> regs(regs_[static_cast<size_t>(from)]);
  const uint64_t active_old = regs[nedges];
  uint64_t next_active = active_old & program_->latch_mask();
  for (size_t e = 0; e < nedges; ++e) {
    const CompiledPuProgram::Edge& edge = edges[e];
    const uint64_t gate =
        (edge.start_gated || (active_old & edge.pred_mask) != 0) ? 1 : 0;
    regs[e] = ((regs[e] << 1) | gate) & masks[e];
    if ((regs[e] & edge.fired_bit) != 0) {
      next_active |= uint64_t{1} << edge.state;
    }
  }
  regs[nedges] = next_active;
  return Intern(std::move(regs));
}

bool LazyDfaCache::Run(std::string_view input, uint16_t* match_index,
                       const StartBytePrefilter* prefilter) {
  const uint16_t* classes = program_->byte_classes().data();
  const int32_t* trans = trans_.data();
  const uint8_t* accept = accept_.data();
  const int32_t num_classes = program_->num_byte_classes();
  int32_t sid = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    if (sid == 0 && prefilter != nullptr) {
      // Reset state: SIMD-skip to the next byte that can activate any
      // edge. Skipped bytes provably self-loop on state 0, which never
      // accepts, so the result is identical to stepping them.
      i = simd::FindByteSetAtLevel(input, i, prefilter->bytes.data(),
                                   prefilter->count, prefilter->level);
      if (i == std::string_view::npos) break;
    }
    const int32_t cls = classes[static_cast<uint8_t>(input[i])];
    int32_t next = trans[sid * num_classes + cls];
    if (next < 0) {
      next = Step(sid, cls);
      if (next < 0) return false;
      // Step may have grown the tables; refresh the raw pointers.
      trans_[static_cast<size_t>(sid * num_classes + cls)] = next;
      trans = trans_.data();
      accept = accept_.data();
    }
    sid = next;
    if (accept[sid] != 0) {
      *match_index =
          i + 1 > 65535 ? 65535 : static_cast<uint16_t>(i + 1);
      return true;
    }
  }
  *match_index = 0;
  return true;
}

bool LazyDfaCache::RunSet(std::string_view input, uint16_t* match,
                          const StartBytePrefilter* prefilter) {
  const int num_patterns = program_->num_patterns();
  const uint64_t all = num_patterns >= 64
                           ? ~uint64_t{0}
                           : (uint64_t{1} << num_patterns) - 1;
  for (int p = 0; p < num_patterns; ++p) match[p] = 0;

  const uint16_t* classes = program_->byte_classes().data();
  const int32_t num_classes = program_->num_byte_classes();
  int32_t sid = 0;
  uint64_t matched = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    if (sid == 0 && prefilter != nullptr) {
      // Reset state never accepts (for any stream), so the skip is sound
      // exactly as in Run().
      i = simd::FindByteSetAtLevel(input, i, prefilter->bytes.data(),
                                   prefilter->count, prefilter->level);
      if (i == std::string_view::npos) break;
    }
    const int32_t cls = classes[static_cast<uint8_t>(input[i])];
    int32_t next = trans_[static_cast<size_t>(sid * num_classes + cls)];
    if (next < 0) {
      next = Step(sid, cls);
      if (next < 0) return false;
      trans_[static_cast<size_t>(sid * num_classes + cls)] = next;
    }
    sid = next;
    uint64_t fresh = accept_tags_[static_cast<size_t>(sid)] & ~matched;
    if (fresh != 0) {
      const uint16_t index =
          i + 1 > 65535 ? 65535 : static_cast<uint16_t>(i + 1);
      while (fresh != 0) {
        const int p = std::countr_zero(fresh);
        match[p] = index;
        fresh &= fresh - 1;
      }
      matched |= accept_tags_[static_cast<size_t>(sid)];
      if (matched == all) return true;
    }
  }
  return true;
}

}  // namespace doppio
