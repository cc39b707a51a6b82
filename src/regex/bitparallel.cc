#include "regex/bitparallel.h"

#include <cstdlib>
#include <cstring>
#include <utility>

namespace doppio {

std::optional<BitParallelProgram> BitParallelProgram::Compile(
    const TokenNfa& nfa) {
  std::optional<std::vector<int>> chain = AnalyzeChainShape(nfa);
  if (!chain.has_value()) return std::nullopt;

  BitParallelProgram program;
  program.stages_.reserve(chain->size());
  for (int state_index : *chain) {
    const HwState& state = nfa.states[static_cast<size_t>(state_index)];
    const HwToken& token =
        nfa.tokens[static_cast<size_t>(state.trigger_tokens[0])];
    if (token.length() <= 0 || token.length() > 64) {
      return std::nullopt;  // must fit one word
    }
    std::optional<Stage> stage = Stage::Build(token, /*heap_mode=*/false);
    if (!stage.has_value()) return std::nullopt;
    if (program.stages_.empty()) {
      program.heap_stage0_ = Stage::Build(token, /*heap_mode=*/true);
    }
    program.stages_.push_back(std::move(*stage));
  }
  return program;
}

std::optional<BitParallelProgram::Stage> BitParallelProgram::Stage::Build(
    const HwToken& token, bool heap_mode) {
  const int len = token.length();
  Stage stage;
  stage.length = len;
  stage.accept_bit = uint64_t{1} << (len - 1);
  stage.masks.fill(0);
  for (int b = heap_mode ? 1 : 0; b < 256; ++b) {
    uint64_t mask = 0;
    for (int j = 0; j < len; ++j) {
      if (token.chain[static_cast<size_t>(j)].Test(static_cast<uint8_t>(b))) {
        mask |= uint64_t{1} << j;
      }
    }
    stage.masks[static_cast<size_t>(b)] = mask;
  }

  // Candidate filter: the rarest position (fewest matching bytes, ties to
  // the earliest), then the rarest other position, ties to the one
  // farthest from the first. Only rare positions — at most kMaxScanBytes
  // bytes, what one SIMD set compare covers — qualify.
  std::array<int, 64> counts{};
  for (int j = 0; j < len; ++j) {
    for (int b = 0; b < 256; ++b) {
      counts[static_cast<size_t>(j)] +=
          static_cast<int>((stage.masks[static_cast<size_t>(b)] >> j) & 1);
    }
    // A position nothing matches: the stage never matches. Heap mode
    // leaves such a program (a NUL-only position) to the per-row loop.
    if (counts[static_cast<size_t>(j)] == 0 && heap_mode) return std::nullopt;
  }
  auto rare = [&](int j) {
    const int count = counts[static_cast<size_t>(j)];
    return count >= 1 && count <= simd::kMaxScanBytes;
  };
  int first = -1;
  for (int j = 0; j < len; ++j) {
    if (rare(j) && (first < 0 || counts[static_cast<size_t>(j)] <
                                     counts[static_cast<size_t>(first)])) {
      first = j;
    }
  }
  int second = -1;
  for (int j = 0; first >= 0 && j < len; ++j) {
    if (j == first || !rare(j)) continue;
    if (second < 0 ||
        counts[static_cast<size_t>(j)] < counts[static_cast<size_t>(second)] ||
        (counts[static_cast<size_t>(j)] ==
             counts[static_cast<size_t>(second)] &&
         std::abs(j - first) > std::abs(second - first))) {
      second = j;
    }
  }
  if (first >= 0) stage.anchor_offset[stage.num_anchors++] = first;
  if (second >= 0) stage.anchor_offset[stage.num_anchors++] = second;
  if (stage.num_anchors == 2 && second < first) {
    std::swap(stage.anchor_offset[0], stage.anchor_offset[1]);
  }
  for (int k = 0; k < stage.num_anchors; ++k) {
    simd::ByteSet& set = stage.anchor_bytes[static_cast<size_t>(k)];
    const int j = stage.anchor_offset[static_cast<size_t>(k)];
    for (int b = 0; b < 256; ++b) {
      if ((stage.masks[static_cast<size_t>(b)] >> j) & 1) {
        set.bytes[set.count++] = static_cast<uint8_t>(b);
      }
    }
  }
  return stage;
}

size_t BitParallelProgram::Stage::FindEnd(std::string_view input,
                                          size_t from,
                                          simd::SimdLevel level) const {
  const size_t m = static_cast<size_t>(length);
  if (input.size() < m || from > input.size() - m) {
    return std::string_view::npos;
  }
  if (num_anchors > 0) {
    // Candidate scan: places where the rare position(s) match, verified
    // against the full fixed-length window. Candidates arrive in
    // increasing position, so the first verified window is the earliest
    // occurrence (fixed length: earliest start == earliest end).
    const size_t lead = static_cast<size_t>(anchor_offset[0]);
    const size_t distance =
        static_cast<size_t>(anchor_offset[1] - anchor_offset[0]);
    size_t c = from + lead;
    while (true) {
      c = num_anchors == 2
              ? simd::FindBytePairAtLevel(input, c, anchor_bytes[0],
                                          anchor_bytes[1], distance, level)
              : simd::FindByteSetAtLevel(input, c, anchor_bytes[0].bytes,
                                         anchor_bytes[0].count, level);
      if (c == std::string_view::npos) return std::string_view::npos;
      const size_t start = c - lead;
      if (start + m > input.size()) return std::string_view::npos;
      bool verified = true;
      for (size_t j = 0; j < m; ++j) {
        if (((masks[static_cast<uint8_t>(input[start + j])] >> j) & 1) == 0) {
          verified = false;
          break;
        }
      }
      if (verified) return start + m;
      ++c;
    }
  }
  // Shift-And: bit j of `d` tracks "chain positions 0..j matched, ending
  // here". Two ops per byte, all prefix attempts in parallel.
  uint64_t d = 0;
  for (size_t i = from; i < input.size(); ++i) {
    d = ((d << 1) | 1) & masks[static_cast<uint8_t>(input[i])];
    if ((d & accept_bit) != 0) return i + 1;
  }
  return std::string_view::npos;
}

uint16_t BitParallelProgram::FindFrom(std::string_view input, size_t pos,
                                      size_t first_stage,
                                      simd::SimdLevel level) const {
  for (size_t k = first_stage; k < stages_.size(); ++k) {
    const size_t end = stages_[k].FindEnd(input, pos, level);
    if (end == std::string_view::npos) return 0;
    pos = end;
  }
  return pos > 65535 ? 65535 : static_cast<uint16_t>(pos);
}

void BitParallelProgram::FindRows(const uint8_t* heap,
                                  const uint32_t* offsets, size_t rows,
                                  uint16_t* out,
                                  simd::SimdLevel level) const {
  const char* base = reinterpret_cast<const char*>(heap);
  auto row_at = [&](size_t r) { return std::string_view(base + offsets[r]); };
  bool heap_mode = heap_stage0_.has_value();
  for (size_t r = 1; heap_mode && r < rows; ++r) {
    heap_mode = offsets[r] > offsets[r - 1];
  }
  if (!heap_mode) {
    for (size_t r = 0; r < rows; ++r) out[r] = Find(row_at(r), level);
    return;
  }
  if (rows == 0) return;

  // Every row lies inside the span from the first row's offset to the
  // last row's terminator; positions in it are heap offsets.
  const Stage& stage0 = *heap_stage0_;
  const size_t last = offsets[rows - 1];
  const std::string_view span(base, last + std::strlen(base + last));
  size_t r = 0;
  while (r < rows) {
    const size_t end = stage0.FindEnd(span, offsets[r], level);
    if (end == std::string_view::npos) break;
    const size_t start = end - static_cast<size_t>(stage0.length);
    // Rows that end before the window hold none — unless a row runs past
    // the next row's offset (no NUL right before it): match that alone.
    while (r + 1 < rows && offsets[r + 1] <= start) {
      out[r] = base[offsets[r + 1] - 1] == '\0' ? 0 : Find(row_at(r), level);
      ++r;
    }
    // The window holds no NUL, so it lies inside row r — unless it starts
    // past the row's terminator, in heap bytes the offsets skip.
    const std::string_view row = row_at(r);
    const size_t row_begin = offsets[r];
    out[r] = start < row_begin + row.size()
                 ? FindFrom(row, end - row_begin, 1, level)
                 : 0;
    ++r;
  }
  for (; r < rows; ++r) out[r] = 0;
}

int BitParallelProgram::num_anchored_stages() const {
  int n = 0;
  for (const Stage& stage : stages_) n += stage.num_anchors > 0 ? 1 : 0;
  return n;
}

int BitParallelProgram::num_pair_filtered_stages() const {
  int n = 0;
  for (const Stage& stage : stages_) n += stage.num_anchors == 2 ? 1 : 0;
  return n;
}

}  // namespace doppio
