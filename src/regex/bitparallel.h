// Bit-parallel (Baeza-Yates–Gonnet Shift-And) execution of chain-shaped
// PU programs on the host CPU.
//
// A chain-shaped token NFA (regex/token_nfa.h AnalyzeChainShape) is an
// ordered sequence of fixed-length token chains glued by '.*' latches —
// LIKE '%t1%t2%...%' where each t_i is a sequence of character specs, not
// just exact bytes. Each stage becomes one Shift-And machine: the match
// state is a single word whose bit j means "the first j+1 positions of
// the chain match, ending at the current byte", stepped with two ALU ops
// per byte:
//
//     D' = ((D << 1) | 1) & B[byte]
//
// where B is the 256-entry position-mask table built from the CharSpecs.
//
// Candidate filter. A position is *rare* when its spec matches at most
// simd::kMaxScanBytes distinct bytes. A stage with two rare positions
// skips via the two-position SIMD scan (simd::FindBytePairAtLevel): the
// two rarest positions — ties go to the pair farthest apart, so a literal
// filters on its first and last byte — must both match in the same vector
// compare, at their fixed distance, before a window is verified against
// the full mask table. Two bytes at a fixed distance are far rarer than
// either alone (an 'e' fires every few bytes of address text; a 'G' with
// an 'e' four bytes later, as in "Gasse", hardly ever does), so a common
// byte in the pattern no longer floods the verifier with candidates. A
// stage with one rare position scans for that byte alone; a
// stage with none runs the plain Shift-And loop. Text that cannot contain
// the stage then streams at vector speed instead of byte-at-a-time
// automaton speed.
//
// Heap mode (FindRows). A run of rows that sit in increasing order in one
// NUL-terminated string heap is matched with ONE stage-0 scan over the
// heap span from the first row's offset to the last row's terminator —
// the String Reader's view of the data — instead of one scan per row.
// Stage 0's heap copy clears byte 0x00 from every position mask, so no
// window crosses a row terminator; a forward cursor over the offsets maps
// each verified window to its row, later stages run on that row alone,
// and the scan resumes at the next row's offset. Rows the scan passes
// without a window are written 0 untouched.
//
// Results are bit-identical to the PU kernels by construction: stages are
// fixed-length, so greedy earliest-occurrence search per stage yields the
// same first-accept position as the NFA semantics (the same argument the
// literal kernel relies on), and the verification logic is the CharSpec
// masks themselves.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "regex/simd_scan.h"
#include "regex/token_nfa.h"

namespace doppio {

class BitParallelProgram {
 public:
  /// Compiles a chain-shaped token NFA whose every stage fits a 64-bit
  /// word; nullopt when the shape or the word bound does not hold.
  static std::optional<BitParallelProgram> Compile(const TokenNfa& nfa);

  /// PU ProcessString semantics: 1-based position of the first match's
  /// last character saturated at 65535, or 0 for no match. Callers in a
  /// per-string loop should resolve simd::ActiveSimdLevel() once and pass
  /// it explicitly — the level lookup reads the environment.
  uint16_t Find(std::string_view input) const {
    return Find(input, simd::ActiveSimdLevel());
  }
  uint16_t Find(std::string_view input, simd::SimdLevel level) const {
    return FindFrom(input, 0, 0, level);
  }

  /// Find() of every row of a run: row i is the NUL-terminated string at
  /// heap + offsets[i], its result lands in out[i]. Runs in heap mode
  /// (see above) when the offsets strictly increase; otherwise, or when
  /// stage 0 has a position only NUL can match, row by row. A row whose
  /// string runs past the next row's offset (no NUL right before it) is
  /// matched alone. Loads stay between the first row's offset and the
  /// last row's terminator (row by row: inside each row).
  void FindRows(const uint8_t* heap, const uint32_t* offsets, size_t rows,
                uint16_t* out, simd::SimdLevel level) const;

  int num_stages() const { return static_cast<int>(stages_.size()); }
  /// Stages with at least one rare position (a SIMD candidate scan).
  int num_anchored_stages() const;
  /// Stages filtered on two rare positions at once.
  int num_pair_filtered_stages() const;

 private:
  struct Stage {
    std::array<uint64_t, 256> masks;  // bit j: byte matches chain pos j
    int length = 0;
    uint64_t accept_bit = 0;  // 1 << (length - 1)
    /// Candidate filter: 0 (plain Shift-And loop), 1 or 2 rare positions,
    /// in increasing order, with the bytes each one matches.
    int num_anchors = 0;
    std::array<int, 2> anchor_offset{};
    std::array<simd::ByteSet, 2> anchor_bytes{};

    /// Builds the stage of `token`; `heap_mode` clears byte 0x00 from
    /// every position, and yields nullopt when some position then
    /// matches nothing.
    static std::optional<Stage> Build(const HwToken& token, bool heap_mode);

    /// One-past-end index of the earliest occurrence starting at or
    /// after `from`, or npos.
    size_t FindEnd(std::string_view input, size_t from,
                   simd::SimdLevel level) const;
  };

  /// Runs stages [first_stage, end) from `pos` on; the PU result index.
  uint16_t FindFrom(std::string_view input, size_t pos, size_t first_stage,
                    simd::SimdLevel level) const;

  std::vector<Stage> stages_;
  /// Stage 0 for heap mode; nullopt disables heap mode.
  std::optional<Stage> heap_stage0_;
};

}  // namespace doppio
