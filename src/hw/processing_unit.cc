#include "hw/processing_unit.h"

#include "common/logging.h"

namespace doppio {

void ProcessingUnit::Configure(
    std::shared_ptr<const CompiledPuProgram> program) {
  DOPPIO_CHECK(program != nullptr);
  program_ = std::move(program);
  dfa_ = program_->kernel() == PuKernelKind::kLazyDfa
             ? std::make_unique<LazyDfaCache>(program_.get())
             : nullptr;
  progress_.assign(program_->edges().size(), 0);
  const int k = program_->num_patterns();
  match_indexes_.assign(static_cast<size_t>(k), 0);
  all_streams_ = k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  StartString();
}

void ProcessingUnit::StartString() {
  std::fill(progress_.begin(), progress_.end(), 0);
  std::fill(match_indexes_.begin(), match_indexes_.end(), 0);
  active_ = 0;
  position_ = 0;
  match_index_ = 0;
  matched_streams_ = 0;
}

void ProcessingUnit::ConsumeByte(uint8_t byte) {
  ++cycles_;
  ++position_;
  // First match latched; the PU keeps streaming. A set program keeps
  // stepping until every tagged stream has latched its own first match.
  if (matched_streams_ == all_streams_) return;

  const std::vector<CompiledPuProgram::Edge>& edges = program_->edges();
  uint64_t next_active = active_ & program_->latch_mask();
  const uint64_t active_old = active_;
  for (size_t e = 0; e < edges.size(); ++e) {
    const CompiledPuProgram::Edge& edge = edges[e];
    // Chain start gate: start-gated states are always open; others need an
    // active predecessor on the previous cycle.
    const uint64_t gate =
        (edge.start_gated || (active_old & edge.pred_mask) != 0) ? 1 : 0;
    progress_[e] = ((progress_[e] << 1) | gate) & edge.byte_mask[byte];
    if ((progress_[e] & edge.fired_bit) != 0) {
      next_active |= uint64_t{1} << edge.state;
    }
  }
  active_ = next_active;
  if ((active_ & program_->accept_mask()) != 0) {
    const uint16_t index = position_ > 65535
                               ? 65535
                               : static_cast<uint16_t>(position_);
    for (int p = 0; p < program_->num_patterns(); ++p) {
      if ((matched_streams_ & (uint64_t{1} << p)) != 0) continue;
      if ((active_ & program_->pattern_accept_mask(p)) != 0) {
        match_indexes_[static_cast<size_t>(p)] = index;
        matched_streams_ |= uint64_t{1} << p;
      }
    }
    if (match_index_ == 0 && matched_streams_ != 0) match_index_ = index;
  }
}

uint16_t ProcessingUnit::RunNfaLoop(std::string_view input) {
  const std::vector<CompiledPuProgram::Edge>& edges = program_->edges();
  const uint64_t latch_mask = program_->latch_mask();
  const uint64_t accept_mask = program_->accept_mask();
  std::fill(progress_.begin(), progress_.end(), 0);
  uint64_t active = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    const uint8_t byte = static_cast<uint8_t>(input[i]);
    uint64_t next_active = active & latch_mask;
    for (size_t e = 0; e < edges.size(); ++e) {
      const CompiledPuProgram::Edge& edge = edges[e];
      const uint64_t gate =
          (edge.start_gated || (active & edge.pred_mask) != 0) ? 1 : 0;
      progress_[e] = ((progress_[e] << 1) | gate) & edge.byte_mask[byte];
      if ((progress_[e] & edge.fired_bit) != 0) {
        next_active |= uint64_t{1} << edge.state;
      }
    }
    active = next_active;
    if ((active & accept_mask) != 0) {
      return i + 1 > 65535 ? 65535 : static_cast<uint16_t>(i + 1);
    }
  }
  return 0;
}

void ProcessingUnit::RunNfaLoopSet(std::string_view input, uint16_t* match) {
  const std::vector<CompiledPuProgram::Edge>& edges = program_->edges();
  const uint64_t latch_mask = program_->latch_mask();
  const uint64_t accept_mask = program_->accept_mask();
  const int num_patterns = program_->num_patterns();
  for (int p = 0; p < num_patterns; ++p) match[p] = 0;
  std::fill(progress_.begin(), progress_.end(), 0);
  uint64_t active = 0;
  uint64_t matched = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    const uint8_t byte = static_cast<uint8_t>(input[i]);
    uint64_t next_active = active & latch_mask;
    for (size_t e = 0; e < edges.size(); ++e) {
      const CompiledPuProgram::Edge& edge = edges[e];
      const uint64_t gate =
          (edge.start_gated || (active & edge.pred_mask) != 0) ? 1 : 0;
      progress_[e] = ((progress_[e] << 1) | gate) & edge.byte_mask[byte];
      if ((progress_[e] & edge.fired_bit) != 0) {
        next_active |= uint64_t{1} << edge.state;
      }
    }
    active = next_active;
    if ((active & accept_mask) != 0) {
      const uint16_t index =
          i + 1 > 65535 ? 65535 : static_cast<uint16_t>(i + 1);
      for (int p = 0; p < num_patterns; ++p) {
        if ((matched & (uint64_t{1} << p)) != 0) continue;
        if ((active & program_->pattern_accept_mask(p)) != 0) {
          match[p] = index;
          matched |= uint64_t{1} << p;
        }
      }
      if (matched == all_streams_) return;
    }
  }
}

uint16_t ProcessingUnit::RunLiteral(std::string_view input) const {
  size_t pos = 0;
  for (const CompiledPuProgram::LiteralStage& stage :
       program_->literal_stages()) {
    const size_t hit =
        stage.case_insensitive
            ? stage.matcher.Find(input, pos)
            : FindLiteralScan(input, stage.matcher.needle(), pos);
    if (hit == std::string_view::npos) return 0;
    pos = hit + stage.matcher.needle().size();
  }
  return pos > 65535 ? 65535 : static_cast<uint16_t>(pos);
}

uint16_t ProcessingUnit::ProcessString(std::string_view input) {
  DOPPIO_CHECK(configured());
  StartString();
  switch (program_->kernel()) {
    case PuKernelKind::kLiteral:
      match_index_ = RunLiteral(input);
      break;
    case PuKernelKind::kLazyDfa: {
      uint16_t index = 0;
      // Bounded cache: on overflow mid-string, re-run through the
      // interpreter loop (identical semantics).
      match_index_ = dfa_->Run(input, &index) ? index : RunNfaLoop(input);
      break;
    }
    case PuKernelKind::kNfaLoop:
      match_index_ = RunNfaLoop(input);
      break;
  }
  if (program_->num_patterns() == 1 && !match_indexes_.empty()) {
    match_indexes_[0] = match_index_;
    matched_streams_ = match_index_ != 0 ? 1 : 0;
  }
  // The real PU streams every byte of the string at its constant one
  // byte/cycle rate no matter when (or whether) the match latched, so the
  // whole string is accounted exactly once — the single point of cycle
  // accounting for this string (no streaming-tail double-advance when the
  // match lands on the final byte).
  position_ = static_cast<int64_t>(input.size());
  cycles_ += static_cast<int64_t>(input.size());
  return match_index_;
}

void ProcessingUnit::ProcessStringSet(std::string_view input,
                                      uint16_t* match) {
  DOPPIO_CHECK(configured());
  const int num_patterns = program_->num_patterns();
  if (num_patterns == 1) {
    match[0] = ProcessString(input);
    return;
  }
  StartString();
  switch (program_->kernel()) {
    case PuKernelKind::kLazyDfa:
      if (!dfa_->RunSet(input, match)) RunNfaLoopSet(input, match);
      break;
    case PuKernelKind::kLiteral:  // unions are never chain-shaped; defensive
    case PuKernelKind::kNfaLoop:
      RunNfaLoopSet(input, match);
      break;
  }
  uint16_t first = 0;
  for (int p = 0; p < num_patterns; ++p) {
    match_indexes_[static_cast<size_t>(p)] = match[p];
    if (match[p] != 0 && (first == 0 || match[p] < first)) first = match[p];
    if (match[p] != 0) matched_streams_ |= uint64_t{1} << p;
  }
  match_index_ = first;
  // Same constant-rate accounting as ProcessString: one pass over the
  // string serves every member of the set.
  position_ = static_cast<int64_t>(input.size());
  cycles_ += static_cast<int64_t>(input.size());
}

}  // namespace doppio
