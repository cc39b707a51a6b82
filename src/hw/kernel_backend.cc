#include "hw/kernel_backend.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "hw/output_collector.h"
#include "hw/processing_unit.h"
#include "hw/string_reader.h"
#include "regex/bitparallel.h"
#include "regex/simd_scan.h"

namespace doppio {

const char* BackendName(BackendId id) {
  switch (id) {
    case BackendId::kCpuScalar:
      return "cpu-scalar";
    case BackendId::kCpuSimd:
      return "cpu-simd";
    case BackendId::kFpgaSim:
      return "fpga-sim";
  }
  return "?";
}

std::optional<BackendId> ForcedBackend() {
  const char* env = std::getenv("DOPPIO_FORCE_BACKEND");
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "cpu-scalar") == 0) {
    return BackendId::kCpuScalar;
  }
  if (std::strcmp(env, "simd") == 0 || std::strcmp(env, "cpu-simd") == 0) {
    return BackendId::kCpuSimd;
  }
  if (std::strcmp(env, "fpga") == 0 || std::strcmp(env, "fpga-sim") == 0) {
    return BackendId::kFpgaSim;
  }
  return std::nullopt;
}

namespace {

/// ProcessingUnit's compiled kernels (literal / lazy-dfa / nfa-loop) —
/// the reference host execution every other backend is compared against.
class ScalarExecution : public HostExecution {
 public:
  explicit ScalarExecution(std::shared_ptr<const CompiledPuProgram> program) {
    pu_.Configure(std::move(program));
  }

  uint16_t Match(std::string_view input) override {
    return pu_.ProcessString(input);
  }

  void MatchSet(std::string_view input, uint16_t* match) override {
    pu_.ProcessStringSet(input, match);
  }

  const char* kernel_name() const override {
    return PuKernelName(pu_.kernel());
  }

 private:
  ProcessingUnit pu_;
};

/// The SIMD backend's execution: bit-parallel Shift-And for chain-shaped
/// programs, start-byte-prefiltered lazy DFA when the escape-byte set is
/// small, scalar otherwise (forcing this backend never fails).
class SimdExecution : public HostExecution {
 public:
  explicit SimdExecution(std::shared_ptr<const CompiledPuProgram> program)
      : program_(std::move(program)), level_(simd::ActiveSimdLevel()) {
    prefilter_.level = level_;
    const int num_patterns = program_->num_patterns();
    if (program_->kernel() != PuKernelKind::kNfaLoop) {
      if (num_patterns == 1) {
        bitparallel_ = BitParallelProgram::Compile(program_->nfa());
      } else if (program_->members_chain_shaped()) {
        // Set program whose every member is chain-shaped: one bit-parallel
        // engine per member. Union members are disjoint, so running them
        // separately is exactly the tagged-stream semantics.
        for (int p = 0; p < num_patterns; ++p) {
          Result<TokenNfa> member = ExtractMemberNfa(program_->nfa(), p);
          std::optional<BitParallelProgram> bp;
          if (member.ok()) bp = BitParallelProgram::Compile(*member);
          if (!bp.has_value()) {
            member_bp_.clear();
            break;
          }
          member_bp_.push_back(std::move(*bp));
        }
      }
    }
    const bool bit_parallel = bitparallel_.has_value() ||
                              (num_patterns > 1 &&
                               member_bp_.size() ==
                                   static_cast<size_t>(num_patterns));
    if (!bit_parallel) {
      member_bp_.clear();
      const std::vector<uint8_t>& sb = program_->start_bytes();
      if (program_->kernel() == PuKernelKind::kLazyDfa && !sb.empty() &&
          static_cast<int>(sb.size()) <= simd::kMaxScanBytes) {
        for (size_t i = 0; i < sb.size(); ++i) {
          prefilter_.bytes[i] = sb[i];
        }
        prefilter_.count = static_cast<int>(sb.size());
        dfa_ = std::make_unique<LazyDfaCache>(program_.get());
      }
      // Overflow fallback for the prefiltered DFA, or the whole
      // execution when the program has no SIMD-accelerable shape.
      scalar_ = std::make_unique<ScalarExecution>(program_);
    }
    scratch_.assign(static_cast<size_t>(num_patterns), 0);
  }

  uint16_t Match(std::string_view input) override {
    if (bitparallel_.has_value()) return bitparallel_->Find(input, level_);
    if (program_->num_patterns() > 1) {
      // Any-stream semantics on a set program: the earliest stream accept.
      MatchSet(input, scratch_.data());
      uint16_t first = 0;
      for (uint16_t v : scratch_) {
        if (v != 0 && (first == 0 || v < first)) first = v;
      }
      return first;
    }
    if (dfa_ != nullptr) {
      uint16_t index = 0;
      if (dfa_->Run(input, &index, &prefilter_)) return index;
      // Bounded cache overflowed mid-string: identical semantics through
      // the scalar kernels.
    }
    return scalar_->Match(input);
  }

  void MatchSet(std::string_view input, uint16_t* match) override {
    if (program_->num_patterns() == 1) {
      match[0] = Match(input);
      return;
    }
    if (!member_bp_.empty()) {
      for (size_t p = 0; p < member_bp_.size(); ++p) {
        match[p] = member_bp_[p].Find(input, level_);
      }
      return;
    }
    if (dfa_ != nullptr && dfa_->RunSet(input, match, &prefilter_)) return;
    scalar_->MatchSet(input, match);
  }

  const char* kernel_name() const override {
    if (bitparallel_.has_value()) return "bit-parallel";
    if (!member_bp_.empty()) return "bit-parallel-set";
    if (dfa_ != nullptr) return "dfa+prefilter";
    return scalar_->kernel_name();
  }

 private:
  std::shared_ptr<const CompiledPuProgram> program_;
  /// Resolved once: DOPPIO_SIMD_LEVEL capping is per-execution, and the
  /// env lookup is far too slow for the per-string Match loop.
  simd::SimdLevel level_;
  std::optional<BitParallelProgram> bitparallel_;
  std::vector<BitParallelProgram> member_bp_;  // bit-parallel-set route
  StartBytePrefilter prefilter_;
  std::unique_ptr<LazyDfaCache> dfa_;
  std::unique_ptr<ScalarExecution> scalar_;
  std::vector<uint16_t> scratch_;
};

class CpuScalarBackend : public KernelBackend {
 public:
  BackendId id() const override { return BackendId::kCpuScalar; }
  bool CanExecuteOnHost() const override { return true; }
  bool Supports(const CompiledPuProgram&) const override { return true; }
  std::unique_ptr<HostExecution> NewExecution(
      std::shared_ptr<const CompiledPuProgram> program) const override {
    return std::make_unique<ScalarExecution>(std::move(program));
  }
};

class CpuSimdBackend : public KernelBackend {
 public:
  BackendId id() const override { return BackendId::kCpuSimd; }
  bool CanExecuteOnHost() const override { return true; }
  bool Supports(const CompiledPuProgram& program) const override {
    if (program.kernel() == PuKernelKind::kNfaLoop) {
      return false;  // forced interpreter: honor it
    }
    // Set programs: bit-parallel per member when every member is
    // chain-shaped; otherwise the prefiltered-DFA test below applies to
    // the union as a whole (RunSet shares the reset-state skip).
    if (program.num_patterns() > 1 && program.members_chain_shaped()) {
      return true;
    }
    // Chain-shaped programs compile to the bit-parallel engine (stage
    // chains are <= 64 matchers by TokenNfa::Validate, so they always
    // fit one word).
    if (!program.chain_state_order().empty()) return true;
    // Otherwise the lazy DFA accelerates via the start-byte prefilter
    // when the escape-byte set is small enough for the SIMD scan.
    const size_t sb = program.start_bytes().size();
    return program.kernel() == PuKernelKind::kLazyDfa && sb >= 1 &&
           sb <= static_cast<size_t>(simd::kMaxScanBytes);
  }
  std::unique_ptr<HostExecution> NewExecution(
      std::shared_ptr<const CompiledPuProgram> program) const override {
    return std::make_unique<SimdExecution>(std::move(program));
  }
};

class FpgaSimBackend : public KernelBackend {
 public:
  BackendId id() const override { return BackendId::kFpgaSim; }
  bool CanExecuteOnHost() const override { return false; }
  bool Supports(const CompiledPuProgram&) const override { return true; }
  std::unique_ptr<HostExecution> NewExecution(
      std::shared_ptr<const CompiledPuProgram>) const override {
    return nullptr;  // executes through the device, not host slices
  }
};

}  // namespace

BackendRegistry::BackendRegistry() {
  owned_.push_back(std::make_unique<CpuScalarBackend>());
  owned_.push_back(std::make_unique<CpuSimdBackend>());
  owned_.push_back(std::make_unique<FpgaSimBackend>());
  for (const auto& backend : owned_) list_.push_back(backend.get());
}

const BackendRegistry& BackendRegistry::Global() {
  static const BackendRegistry* registry = new BackendRegistry();
  return *registry;
}

const KernelBackend& BackendRegistry::Get(BackendId id) const {
  for (const KernelBackend* backend : list_) {
    if (backend->id() == id) return *backend;
  }
  return *list_.front();  // unreachable: every id is registered
}

const KernelBackend& BackendRegistry::ChooseHost(
    const CompiledPuProgram& program) const {
  const std::optional<BackendId> forced = ForcedBackend();
  if (forced.has_value() && Get(*forced).CanExecuteOnHost()) {
    return Get(*forced);
  }
  // Forced fpga constrains routing (sched/db layers), not the degrade
  // path: a host slice still needs a host backend.
  const KernelBackend& simd = Get(BackendId::kCpuSimd);
  return simd.Supports(program) ? simd : Get(BackendId::kCpuScalar);
}

Result<int64_t> RunHostSlice(const JobParams& params, HostSliceInfo* info) {
  const std::shared_ptr<const CompiledPuProgram>& program = params.program;
  if (program == nullptr) {
    return Status::InvalidArgument("host slice has no compiled program");
  }
  const KernelBackend& backend =
      BackendRegistry::Global().ChooseHost(*program);
  std::unique_ptr<HostExecution> exec = backend.NewExecution(program);
  if (info != nullptr) {
    info->backend = backend.id();
    info->kernel = exec->kernel_name();
  }
  const int32_t streams = params.streams;
  if (program->num_patterns() != streams) {
    return Status::Internal("host slice streams do not match the program");
  }
  StringReader reader(params);
  OutputCollector collector(params);
  std::vector<uint16_t> values(static_cast<size_t>(streams));
  while (reader.HasMore()) {
    DOPPIO_ASSIGN_OR_RETURN(StringReader::Block block, reader.ReadBlock());
    for (std::string_view s : block.strings) {
      if (streams == 1) {
        DOPPIO_RETURN_NOT_OK(collector.Append(exec->Match(s)));
      } else {
        exec->MatchSet(s, values.data());
        DOPPIO_RETURN_NOT_OK(collector.AppendSet(values.data(), streams));
      }
    }
  }
  return collector.matches();
}

Result<int64_t> RunHostCandidates(
    const Bat& input, int64_t rows, const uint16_t* candidates,
    std::shared_ptr<const CompiledPuProgram> program, uint16_t* result,
    HostSliceInfo* info) {
  if (candidates == nullptr || result == nullptr || program == nullptr) {
    return Status::InvalidArgument("null candidate-subset execution input");
  }
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }
  if (program->num_patterns() != 1) {
    return Status::InvalidArgument(
        "candidate-subset execution takes single-pattern programs");
  }
  const int64_t n = std::min<int64_t>(rows, input.count());
  const KernelBackend& backend =
      BackendRegistry::Global().ChooseHost(*program);
  std::unique_ptr<HostExecution> exec = backend.NewExecution(program);
  if (info != nullptr) {
    info->backend = backend.id();
    info->kernel = exec->kernel_name();
  }
  int64_t matches = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (candidates[i] == 0) {
      result[i] = 0;
      continue;
    }
    const uint16_t value = exec->Match(input.GetString(i));
    result[i] = value;
    if (value != 0) ++matches;
  }
  return matches;
}

}  // namespace doppio
