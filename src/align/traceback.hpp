// Full-matrix traceback producing CIGAR strings. O(N*M) memory — the
// conformance ORACLE for the batched linear-memory engine
// (align/traceback_engine.hpp), which is what the pipeline's traceback
// phase actually runs. Intended for tests and moderate lengths only.
#pragma once

#include <span>
#include <string>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"
#include "util/check.hpp"

namespace saloba::align {

/// Local alignment with traceback. CIGAR uses M (match/mismatch), I
/// (insertion in query = gap in reference), D (deletion from query = gap in
/// query consuming reference), query-centric as in SAM.
TracedAlignment smith_waterman_traceback(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring);

/// Banded full-matrix variant: only cells with |i - j| <= band are computed,
/// out-of-band cells read H = 0, E/F = -inf (align::smith_waterman_banded
/// semantics), and the traced path never leaves the band. `band == 0` is the
/// full table — bit-identical to the unbanded overload. Still O(N*M) memory:
/// the masked-DP oracle the linear-memory engine is fuzzed against.
TracedAlignment smith_waterman_traceback(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring, std::size_t band);

/// Expands "3M1I2M" to "MMMIMM" (test helper; throws on malformed input).
std::string expand_cigar(const std::string& cigar);

/// Run-length encodes an op string ("MMMIMM" -> "3M1I2M") — the shared
/// CIGAR emitter of the full-matrix walk and the checkpointed engine.
std::string compress_cigar(const std::string& ops);

/// H and the two gap states of one stored DP cell.
struct StoredCell {
  Score h = 0;
  Score e = 0;
  Score f = 0;
};

/// The backward walk of both full-matrix oracles (smith_waterman_traceback
/// and align::xdrop_reference_align) over their stored tables: from `end`,
/// M before E before F, gap opens before extensions, stopping at H = 0.
/// `cell_at(i, j)` returns the stored cell at 1-based DP coordinates (row i
/// covers ref[i - 1]); row 0, column 0 and never-computed cells hold H = 0,
/// E/F = -inf. Shares no code with the linear-memory engines' TraceWalk, so
/// the oracles stay independent of what they check.
template <typename CellAt>
TracedAlignment trace_stored_matrix(const AlignmentResult& end,
                                    std::span<const seq::BaseCode> ref,
                                    std::span<const seq::BaseCode> query,
                                    const ScoringScheme& scoring, const CellAt& cell_at) {
  TracedAlignment out;
  out.end = end;
  if (end.score <= 0) return out;

  enum class State { kH, kE, kF };
  State state = State::kH;
  std::string ops;
  std::size_t i = static_cast<std::size_t>(end.ref_end) + 1;
  std::size_t j = static_cast<std::size_t>(end.query_end) + 1;
  while (i > 0 && j > 0) {
    const StoredCell c = cell_at(i, j);
    if (state == State::kH) {
      if (c.h == 0) break;
      if (c.h == cell_at(i - 1, j - 1).h + scoring.substitution(ref[i - 1], query[j - 1])) {
        ops += 'M';
        --i;
        --j;
      } else if (c.h == c.e) {
        state = State::kE;
      } else {
        SALOBA_CHECK_MSG(c.h == c.f, "traceback: H cell matches no predecessor");
        state = State::kF;
      }
    } else if (state == State::kE) {
      ops += 'I';
      const bool opened = c.e == cell_at(i, j - 1).h - scoring.alpha();
      --j;
      if (opened) state = State::kH;
    } else {  // State::kF
      ops += 'D';
      const bool opened = c.f == cell_at(i - 1, j).h - scoring.alpha();
      --i;
      if (opened) state = State::kH;
    }
  }

  out.ref_start = static_cast<std::int32_t>(i);
  out.query_start = static_cast<std::int32_t>(j);
  out.cigar = compress_cigar(std::string(ops.rbegin(), ops.rend()));
  return out;
}

/// Validates a CIGAR against sequence spans: M/I consume query, M/D consume
/// reference; returns false on any inconsistency.
bool cigar_consistent(const TracedAlignment& aln, std::size_t ref_len, std::size_t query_len);

/// Recomputes the alignment score implied by a traced alignment (walks the
/// CIGAR over the sequences). Used to cross-check traceback correctness.
Score rescore_cigar(const TracedAlignment& aln, std::span<const seq::BaseCode> ref,
                    std::span<const seq::BaseCode> query, const ScoringScheme& scoring);

}  // namespace saloba::align
