#include "db/hybrid_executor.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "obs/metrics.h"
#include "regex/pattern_parser.h"
#include "sched/result_cache.h"

namespace doppio {

namespace {

obs::Counter& HybridStrategyCounter(HybridStrategy strategy) {
  static obs::Counter* fpga = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_fpga_only", "hybrid plans served fully on FPGA");
  static obs::Counter* split = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_split",
      "hybrid plans split FPGA prefix + CPU postprocess");
  static obs::Counter* software = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_software_only",
      "hybrid plans served fully in software");
  switch (strategy) {
    case HybridStrategy::kFpgaOnly: return *fpga;
    case HybridStrategy::kHybrid: return *split;
    case HybridStrategy::kSoftwareOnly: break;
  }
  return *software;
}

bool IsDotStarNode(const AstNode& node) {
  return node.kind == AstKind::kRepeat && node.repeat_min == 0 &&
         node.repeat_max == -1 &&
         node.children[0]->kind == AstKind::kCharClass &&
         node.children[0]->char_class == CharSet::AnyChar();
}

// Clones children [0, end) of a concat into a prefix AST.
AstNodePtr ConcatPrefix(const AstNode& concat, size_t end) {
  std::vector<AstNodePtr> parts;
  parts.reserve(end);
  for (size_t i = 0; i < end; ++i) {
    parts.push_back(concat.children[i]->Clone());
  }
  return AstNode::Concat(std::move(parts));
}

// Full-pattern scan on the software matchers (the planner's software
// strategy, and the degradation target when the hardware path fails with
// a fallback-eligible error). Shares the implementation with the
// scheduler's over-capacity CPU route (db/hudf.h).
Result<HybridResult> RunSoftwareScan(const Bat& input,
                                     std::string_view pattern,
                                     const CompileOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(HudfResult scan,
                          RunDfaScanInSoftware(input, pattern, options));
  HybridResult out;
  out.result = std::move(scan.result);
  out.stats = std::move(scan.stats);
  return out;
}

// Result-cache keys are the compiled program's identity: the canonical
// config-vector bytes (the same convention sched::ProgramCache uses), so
// a scheduler-cached scan and a direct-submit scan of the same pattern
// resolve to the same entry.
std::string FingerprintOf(const RegexConfig& config) {
  const std::vector<uint8_t>& bytes = config.vector.bytes();
  return std::string(bytes.begin(), bytes.end());
}

// Materializes a cached block as the int16 result BAT the device scan
// would have produced.
Result<std::unique_ptr<Bat>> BatFromBlock(const sched::CachedResultBlock& block,
                                          BufferAllocator* allocator) {
  DOPPIO_ASSIGN_OR_RETURN(
      std::unique_ptr<Bat> bat,
      Bat::New(ValueType::kInt16, block.rows(), allocator));
  DOPPIO_RETURN_NOT_OK(bat->AppendZeros(block.rows()));
  if (block.rows() > 0) {
    std::memcpy(bat->mutable_tail_data(), block.values.data(),
                block.values.size() * sizeof(uint16_t));
  }
  return bat;
}

// Offers a completed device-semantics scan to the result cache. The
// completeness guard lives in ResultCache::Put — degraded or saturated
// blocks are refused there, so callers only classify degradation.
void OfferToCache(sched::ResultCache* cache, const std::string& fingerprint,
                  uint64_t column_id, uint64_t column_version,
                  const Bat& result, bool degraded) {
  const uint16_t* values =
      reinterpret_cast<const uint16_t*>(result.tail_data());
  cache->Put(fingerprint, column_id, column_version,
             std::vector<uint16_t>(values, values + result.count()),
             degraded);
}

// Pre-filter subsumption (docs/RESULT_CACHE.md): a cached scan of a
// '.*'-cut prefix of `pattern` is a *complete* candidate set for it — the
// full unanchored pattern can only match rows where the prefix matched —
// so the full compiled program refines just the candidate rows on the
// host backend. Probes the cut prefixes longest-first on the same column
// snapshot; returns the refined result on a hit, nullopt when no usable
// entry exists. Best-effort by design: internal failures fall through to
// the normal offload rather than surfacing as errors.
std::optional<HybridResult> TryPrefilterRefine(
    sched::ResultCache* cache, Hal* hal, const Bat& input,
    const RegexConfig& full_config, std::string_view pattern,
    uint64_t column_id, uint64_t column_version, int64_t rows,
    const CompileOptions& options) {
  auto parsed = ParseAnchoredPattern(pattern);
  if (!parsed.ok() || parsed->anchor_start || parsed->anchor_end) {
    return std::nullopt;
  }
  AstNodePtr ast = std::move(parsed->ast);
  if (ast->kind != AstKind::kConcat) return std::nullopt;
  std::vector<size_t> cut_points;
  for (size_t i = 0; i < ast->children.size(); ++i) {
    if (IsDotStarNode(*ast->children[i])) cut_points.push_back(i);
  }

  bool probed = false;
  for (auto it = cut_points.rbegin(); it != cut_points.rend(); ++it) {
    if (*it == 0) continue;  // empty prefix subsumes nothing
    AstNodePtr prefix = ConcatPrefix(*ast, *it);
    auto prefix_config =
        CompileRegexConfig(*prefix, hal->device_config(), options);
    if (!prefix_config.ok()) continue;
    probed = true;
    std::shared_ptr<const sched::CachedResultBlock> block = cache->Get(
        FingerprintOf(*prefix_config), column_id, column_version, rows);
    if (block == nullptr) continue;

    auto result = Bat::New(ValueType::kInt16, rows, hal->bat_allocator());
    if (!result.ok() || !(*result)->AppendZeros(rows).ok()) break;
    Stopwatch refine_watch;
    HostSliceInfo info;
    auto matches = RunHostCandidates(
        input, rows, block->values.data(), full_config.program,
        reinterpret_cast<uint16_t*>((*result)->mutable_tail_data()), &info);
    if (!matches.ok()) break;

    int64_t candidates = 0;
    for (uint16_t v : block->values) candidates += (v != 0);
    cache->CountPrefilterUse(rows - candidates);

    HybridResult out;
    out.result = std::move(*result);
    out.strategy = HybridStrategy::kFpgaOnly;
    out.cpu_postprocessed = candidates;
    out.stats.strategy = "fpga+cache_prefilter";
    out.stats.pu_kernel = info.kernel;
    out.stats.rows_scanned = rows;
    out.stats.rows_matched = *matches;
    out.stats.udf_software_seconds = refine_watch.ElapsedSeconds();
    return out;
  }
  if (probed) cache->CountPrefilterReject();
  return std::nullopt;
}

// Partial-extent reuse (docs/RESULT_CACHE.md): an earlier, shorter
// version of an append-only column is a row-identical prefix of the
// current one — AppendString only adds rows. A cached block for such a
// version answers rows [0, block->rows()) verbatim; only the appended
// tail needs scanning, which runs on the host backend with full device
// Match semantics so the merged column is bit-identical to a full scan.
// Best-effort like TryPrefilterRefine: failures fall through to offload.
std::optional<HybridResult> TryPrefixTailServe(
    sched::ResultCache* cache, Hal* hal, const Bat& input,
    const RegexConfig& full_config, const std::string& fingerprint,
    uint64_t column_id, int64_t rows) {
  std::shared_ptr<const sched::CachedResultBlock> block =
      cache->GetPrefix(fingerprint, column_id, rows);
  if (block == nullptr) return std::nullopt;
  const int64_t prefix_rows = block->rows();

  auto result = Bat::New(ValueType::kInt16, rows, hal->bat_allocator());
  if (!result.ok() || !(*result)->AppendZeros(rows).ok()) return std::nullopt;
  std::memcpy((*result)->mutable_tail_data(), block->values.data(),
              static_cast<size_t>(prefix_rows) * sizeof(uint16_t));

  Stopwatch tail_watch;
  JobParams params;
  params.offsets = input.tail_data() + prefix_rows * input.offset_width();
  params.heap = input.heap()->data();
  params.result =
      (*result)->mutable_tail_data() + prefix_rows * sizeof(uint16_t);
  params.count = rows - prefix_rows;
  params.heap_bytes = input.heap()->size_bytes();
  params.program = full_config.program;
  HostSliceInfo info;
  auto tail_matches = RunHostSlice(params, &info);
  if (!tail_matches.ok()) return std::nullopt;

  HybridResult out;
  out.result = std::move(*result);
  out.strategy = HybridStrategy::kFpgaOnly;
  out.stats.strategy = "fpga+cache_prefix";
  out.stats.pu_kernel = info.kernel;
  out.stats.rows_scanned = rows - prefix_rows;  // only the tail was scanned
  out.stats.rows_matched = block->rows_matched + *tail_matches;
  out.stats.udf_software_seconds = tail_watch.ElapsedSeconds();
  return out;
}

}  // namespace

Result<HybridPlan> PlanHybrid(std::string_view pattern,
                              const DeviceConfig& device,
                              const CompileOptions& options) {
  HybridPlan plan;
  plan.full_pattern = std::string(pattern);

  DOPPIO_ASSIGN_OR_RETURN(AnchoredPattern parsed,
                          ParseAnchoredPattern(pattern));
  if (parsed.anchor_start || parsed.anchor_end) {
    // The hardware searches unanchored, and splitting an anchored pattern
    // would change its semantics: software handles it end to end.
    plan.strategy = HybridStrategy::kSoftwareOnly;
    return plan;
  }
  AstNodePtr ast = std::move(parsed.ast);
  auto full = CompileRegexConfig(*ast, device, options);
  if (full.ok()) {
    plan.strategy = HybridStrategy::kFpgaOnly;
    plan.fpga_pattern = plan.full_pattern;
    return plan;
  }
  if (!full.status().IsCapacityExceeded()) return full.status();

  // Split at '.*' boundaries: try the longest prefix first.
  if (ast->kind == AstKind::kConcat) {
    std::vector<size_t> cut_points;  // index of each top-level dot-star
    for (size_t i = 0; i < ast->children.size(); ++i) {
      if (IsDotStarNode(*ast->children[i])) cut_points.push_back(i);
    }
    for (auto it = cut_points.rbegin(); it != cut_points.rend(); ++it) {
      if (*it == 0) continue;  // empty prefix
      AstNodePtr prefix = ConcatPrefix(*ast, *it);
      auto attempt = CompileRegexConfig(*prefix, device, options);
      if (attempt.ok()) {
        plan.strategy = HybridStrategy::kHybrid;
        plan.fpga_pattern = prefix->ToString();
        return plan;
      }
      if (!attempt.status().IsCapacityExceeded()) return attempt.status();
    }
  }
  plan.strategy = HybridStrategy::kSoftwareOnly;
  return plan;
}

Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   std::string_view pattern,
                                   const CompileOptions& options,
                                   RegexAdmissionGate* gate,
                                   sched::ResultCache* cache) {
  Stopwatch total_watch;
  DOPPIO_ASSIGN_OR_RETURN(HybridPlan plan,
                          PlanHybrid(pattern, hal->device_config(), options));

  HybridResult out;
  out.strategy = plan.strategy;
  HybridStrategyCounter(plan.strategy).Add();

  // Admission snapshot for cache keying: the column identity and version
  // observed now. A concurrent append bumps the version, so entries
  // written under this snapshot can never serve the grown column.
  const uint64_t column_id = input.id();
  const uint64_t column_version = input.version();
  const int64_t snapshot_rows = input.count();

  // FPGA offloads go through the admission gate when one is installed;
  // Overloaded rejects are surfaced to the caller (back off, don't
  // degrade), everything else behaves exactly like direct submission.
  auto offload = [&](std::string_view fpga_pattern) {
    return gate != nullptr ? gate->ExecuteRegex(input, fpga_pattern, options)
                           : RegexpFpga(hal, input, fpga_pattern, options);
  };

  if (plan.strategy == HybridStrategy::kFpgaOnly) {
    std::string fingerprint;
    if (cache != nullptr) {
      auto config = CompileRegexConfig(pattern, hal->device_config(), options);
      if (config.ok()) {
        fingerprint = FingerprintOf(*config);
        // Exact hit: this program already scanned this column version in
        // full. Every backend (device, host program, cache) is
        // bit-identical by construction, so the block serves any caller.
        if (auto block = cache->Get(fingerprint, column_id, column_version,
                                    snapshot_rows)) {
          DOPPIO_ASSIGN_OR_RETURN(
              out.result, BatFromBlock(*block, hal->bat_allocator()));
          out.stats.strategy = "fpga-cache";
          out.stats.rows_scanned = snapshot_rows;
          out.stats.rows_matched = block->rows_matched;
          out.stats.udf_software_seconds = total_watch.ElapsedSeconds();
          return out;
        }
        // Subsumption: refine a cached coarser ('.*'-cut prefix) scan
        // instead of rescanning the column.
        std::optional<HybridResult> refined = TryPrefilterRefine(
            cache, hal, input, *config, pattern, column_id, column_version,
            snapshot_rows, options);
        if (refined.has_value()) {
          // The refined block has full device semantics — cache it under
          // the full pattern so the next repeat is an exact hit.
          OfferToCache(cache, fingerprint, column_id, column_version,
                       *refined->result, /*degraded=*/false);
          return std::move(*refined);
        }
        // Partial-extent reuse: a cached scan of a shorter (pre-append)
        // version of this column serves the prefix; only the appended
        // tail is scanned. The merged block is cached under the current
        // version so the next repeat is an exact hit.
        std::optional<HybridResult> served = TryPrefixTailServe(
            cache, hal, input, *config, fingerprint, column_id,
            snapshot_rows);
        if (served.has_value()) {
          OfferToCache(cache, fingerprint, column_id, column_version,
                       *served->result, /*degraded=*/false);
          return std::move(*served);
        }
      }
    }
    // A pinned host backend (DOPPIO_FORCE_BACKEND=scalar|simd) runs the
    // compiled program through the kernel-backend registry instead of
    // offloading — same program, bit-identical results.
    const std::optional<BackendId> forced = ForcedBackend();
    if (forced == BackendId::kCpuScalar || forced == BackendId::kCpuSimd) {
      DOPPIO_ASSIGN_OR_RETURN(
          HudfResult host,
          RegexpHost(hal->device_config(), input, pattern, options));
      out.result = std::move(host.result);
      out.stats = std::move(host.stats);
      if (cache != nullptr && !fingerprint.empty() && out.result != nullptr) {
        OfferToCache(cache, fingerprint, column_id, column_version,
                     *out.result, out.stats.fallback_rows > 0);
      }
      return out;
    }
    Result<HudfResult> hw = offload(pattern);
    if (!hw.ok()) {
      // The HUDF degrades per-slice internally; an error surfacing here
      // that is still fallback-eligible (e.g. the device rejects the job
      // outright) degrades the whole operator to software.
      if (!IsFallbackEligible(hw.status())) return hw.status();
      DOPPIO_ASSIGN_OR_RETURN(out,
                              RunSoftwareScan(input, pattern, options));
      out.strategy = plan.strategy;
      out.stats.strategy = "fpga+sw_fallback";
      return out;
    }
    out.result = std::move(hw->result);
    out.stats = hw->stats;
    // A gated offload already passed through the scheduler, whose own
    // MaybeCacheResult pass inserts the block; only the direct-submit
    // path caches here.
    if (cache != nullptr && gate == nullptr && !fingerprint.empty() &&
        out.result != nullptr) {
      OfferToCache(cache, fingerprint, column_id, column_version,
                   *out.result, out.stats.fallback_rows > 0);
    }
    return out;
  }

  if (plan.strategy == HybridStrategy::kHybrid) {
    // A cached scan of the prefix replaces the device pre-filter wholesale:
    // the candidate set is identical to what the offload would produce
    // (the completeness guard keeps saturated/degraded scans out of the
    // cache), so the post-process below yields bit-identical results.
    std::string prefix_fingerprint;
    std::shared_ptr<const sched::CachedResultBlock> prefix_block;
    if (cache != nullptr) {
      auto prefix_config = CompileRegexConfig(plan.fpga_pattern,
                                              hal->device_config(), options);
      if (prefix_config.ok()) {
        prefix_fingerprint = FingerprintOf(*prefix_config);
        prefix_block = cache->Get(prefix_fingerprint, column_id,
                                  column_version, snapshot_rows);
        if (prefix_block == nullptr) cache->CountPrefilterReject();
      }
    }

    HudfResult hw;
    if (prefix_block != nullptr) {
      DOPPIO_ASSIGN_OR_RETURN(
          hw.result, BatFromBlock(*prefix_block, hal->bat_allocator()));
      hw.stats.rows_scanned = snapshot_rows;
      hw.stats.rows_matched = prefix_block->rows_matched;
      cache->CountPrefilterUse(snapshot_rows);
    } else {
      // FPGA pre-filter on the prefix.
      Result<HudfResult> hw_attempt = offload(plan.fpga_pattern);
      if (!hw_attempt.ok()) {
        if (!IsFallbackEligible(hw_attempt.status())) {
          return hw_attempt.status();
        }
        // Without the pre-filter the full pattern runs in software.
        DOPPIO_ASSIGN_OR_RETURN(out,
                                RunSoftwareScan(input, pattern, options));
        out.strategy = plan.strategy;
        out.stats.strategy = "fpga+sw_fallback";
        return out;
      }
      hw = std::move(*hw_attempt);
      // Cache the prefix scan now — the post-process below overwrites the
      // candidate block in place. Gated offloads are cached by the
      // scheduler; caching them here too would double-account.
      if (cache != nullptr && gate == nullptr &&
          !prefix_fingerprint.empty() && hw.result != nullptr) {
        OfferToCache(cache, prefix_fingerprint, column_id, column_version,
                     *hw.result, hw.stats.fallback_rows > 0);
      }
    }
    out.stats = hw.stats;
    out.stats.strategy =
        prefix_block != nullptr ? "hybrid+cache_prefilter" : "hybrid";

    // CPU post-processing of the tuples that passed, against the full
    // expression (lazy DFA; the prefix already pruned the bulk).
    Stopwatch cpu_watch;
    DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<DfaMatcher> matcher,
                            DfaMatcher::Compile(pattern, options));
    int64_t matched = 0;
    for (int64_t i = 0; i < hw.result->count(); ++i) {
      int16_t prefilter = hw.result->GetInt16(i);
      if (prefilter == 0) continue;
      ++out.cpu_postprocessed;
      MatchResult m = matcher->Find(input.GetString(i));
      if (!m.matched) {
        reinterpret_cast<int16_t*>(hw.result->mutable_tail_data())[i] = 0;
      } else {
        reinterpret_cast<int16_t*>(hw.result->mutable_tail_data())[i] =
            static_cast<int16_t>(std::min<int32_t>(m.end, 32767));
        ++matched;
      }
    }
    out.stats.udf_software_seconds += cpu_watch.ElapsedSeconds();
    out.stats.rows_matched = matched;
    out.result = std::move(hw.result);
    return out;
  }

  // Pure software fallback.
  DOPPIO_ASSIGN_OR_RETURN(HybridResult sw,
                          RunSoftwareScan(input, pattern, options));
  sw.strategy = plan.strategy;
  return sw;
}

}  // namespace doppio
