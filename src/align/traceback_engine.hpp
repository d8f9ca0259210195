// Linear-memory banded/checkpointed traceback — the engine behind the
// pipeline's two-phase alignment (AlignerOptions::traceback).
//
// The full-matrix traceback (align/traceback.hpp) stores H/E/F for every
// cell: O(N*M) memory and a cold serial allocation per pair — exactly the
// per-pair, locality-blind work the paper's batched kernels exist to
// eliminate. This engine instead:
//
//   1. re-runs the banded forward sweep (bit-identical to
//      align::smith_waterman_banded) keeping only two row arrays,
//      snapshotting the row state every `checkpoint_rows` rows — each
//      snapshot is just the band window, O(band) scores;
//   2. walks the optimal path backwards, re-deriving one
//      `checkpoint_rows`-row block at a time from the nearest snapshot and
//      storing one flag byte per cell (TraceFlag), so at most
//      O(checkpoint_rows * band) bytes are ever materialized.
//
// Memory is O((N / checkpoint_rows + checkpoint_rows) * band) — linear in
// the sequence length for a fixed band — yet the emitted path is
// bit-identical to the full-matrix oracle: the same forward values (banded
// conformance) walked with the same M-before-E-before-F preference.
//
// The flag bytes and the walk over them (TraceWalk) are shared with the
// inter-sequence SIMD engine's traced cohort pass (align/simd_engine.hpp),
// which replays the same K-row blocks for a whole vector of pairs at once,
// and with the X-drop wavefront (align/xdrop_wavefront.hpp), which replays
// blocks of anti-diagonals instead of rows. The walk's decision order — the
// canonical traced path — exists once for all three engines. The walk moves
// only up and left, so those two replay only the cells up to the walk's
// cell where it enters a block: the SIMD lanes stop at its row and column,
// and the wavefront clips each diagonal to that cell's cone, a triangle.
// This engine replays whole band rows, as the oracle of both and the
// simulated backend's functional engine whose replay_cells price the
// modeled traceback phase.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"
#include "util/check.hpp"

namespace saloba::align {

struct TracebackParams {
  /// Only cells with |i - j| <= band are computed; 0 = full table.
  std::size_t band = 0;
  /// Rows between row-state snapshots — the height K of the blocks the
  /// walk re-derives; 0 picks ~sqrt(|ref|) (checkpoint_block_rows), the
  /// memory sweet spot. 1 degenerates to "snapshot every row" (fuzzed).
  std::size_t checkpoint_rows = 0;
};

/// The block height K both traceback engines use for `rows` DP rows:
/// `checkpoint_rows` when set, otherwise ~sqrt(rows) (at least 8).
std::size_t checkpoint_block_rows(std::size_t rows, std::size_t checkpoint_rows);

/// Cost accounting of one engine run — what the simulated backend converts
/// into modeled traceback-phase time and memory traffic.
struct TracebackStats {
  std::size_t forward_cells = 0;  ///< cells of the checkpointed score sweep
  std::size_t replay_cells = 0;   ///< cells re-derived during the backward walk
  /// Modeled memory traffic: snapshot writes, snapshot restores, block H/E/F
  /// stores and the walk's reads, priced as int32 H/E/F cells (bytes) — the
  /// simulated phase's traffic model, independent of the host's flag-byte
  /// blocks.
  std::size_t traffic_bytes = 0;

  std::size_t cells() const { return forward_cells + replay_cells; }
};

struct TracebackResult {
  TracedAlignment traced;
  TracebackStats stats;
};

/// One re-derived cell's traceback decisions, one bit per comparison the
/// backward walk makes (the full-matrix oracle's comparisons, taken while
/// the cell is computed instead of re-read from stored H/E/F later).
enum TraceFlag : std::uint8_t {
  kTraceDiag = 1,    ///< H(i,j) == H(i-1,j-1) + S(i,j)
  kTraceFromE = 2,   ///< H(i,j) == E(i,j)
  kTraceFromF = 4,   ///< H(i,j) == F(i,j)
  kTraceEOpen = 8,   ///< E(i,j) == H(i,j-1) - alpha (gap opened, not extended)
  kTraceFOpen = 16,  ///< F(i,j) == H(i-1,j) - alpha
  kTraceZero = 32,   ///< H(i,j) == 0: the local alignment starts here
};

/// The flag byte of a cell from its exact values (`e_open` = H(i,j-1) -
/// alpha, `f_open` = H(i-1,j) - alpha). Every engine's block reader returns
/// kTraceZero alone for cells outside its mask (out of band, or never
/// computed by the X-drop wavefront): the masked-DP H = 0, E/F = -inf.
/// The SIMD cohort kernel sets the same bits with vector compares on its
/// zero-clamped lanes; that is exact because every cell the walk consults
/// has H > 0 and every E/F it follows along a gap is > 0, so comparisons
/// between clamped values agree with the exact ones.
inline std::uint8_t trace_flags(Score h, Score diag, Score e, Score f, Score e_open,
                                Score f_open) {
  return static_cast<std::uint8_t>((h == diag ? kTraceDiag : 0) | (h == e ? kTraceFromE : 0) |
                                   (h == f ? kTraceFromF : 0) |
                                   (e == e_open ? kTraceEOpen : 0) |
                                   (f == f_open ? kTraceFOpen : 0) | (h == 0 ? kTraceZero : 0));
}

/// The backward walk over flag bytes, resumable one re-derived block at a
/// time: the full-matrix state machine (M before E before F, gap opens
/// before extensions, stop at H = 0) that every traceback engine runs.
/// Positions are 1-based DP coordinates (row i covers ref[i - 1]).
class TraceWalk {
 public:
  /// A finished walk (nothing to trace).
  TraceWalk() = default;
  /// Starts at the best cell of a positive-score alignment.
  explicit TraceWalk(const AlignmentResult& end)
      : end_(end),
        i_(static_cast<std::size_t>(end.ref_end) + 1),
        j_(static_cast<std::size_t>(end.query_end) + 1),
        done_(end.score <= 0) {}

  bool done() const { return done_; }
  /// The 1-based DP row the walk stands on.
  std::size_t row() const { return i_; }
  /// The 1-based DP column the walk stands on.
  std::size_t col() const { return j_; }
  /// CIGAR ops emitted so far.
  std::size_t steps() const { return ops_.size(); }

  /// Walks while `in_block(i, j)` says the current cell lies in the
  /// re-derived block, reading each visited cell's flag byte through
  /// `flag_at(i, j)`. Returns when the walk ends or needs an earlier block.
  template <typename InBlock, typename FlagAt>
  void advance(const InBlock& in_block, const FlagAt& flag_at) {
    while (!done_) {
      if (i_ == 0 || j_ == 0) {
        done_ = true;
        return;
      }
      if (!in_block(i_, j_)) return;
      const std::uint8_t flags = flag_at(i_, j_);
      if (state_ == State::kH) {
        if (flags & kTraceZero) {
          done_ = true;
          return;
        }
        if (flags & kTraceDiag) {
          ops_ += 'M';
          --i_;
          --j_;
        } else if (flags & kTraceFromE) {
          state_ = State::kE;
        } else {
          SALOBA_CHECK_MSG(flags & kTraceFromF, "traceback: H cell matches no predecessor");
          state_ = State::kF;
        }
      } else if (state_ == State::kE) {
        ops_ += 'I';
        --j_;
        if (flags & kTraceEOpen) state_ = State::kH;
      } else {  // State::kF
        ops_ += 'D';
        --i_;
        if (flags & kTraceFOpen) state_ = State::kH;
      }
    }
  }

  /// The traced alignment of a finished walk.
  TracedAlignment result() const;

 private:
  enum class State : std::uint8_t { kH, kE, kF };
  AlignmentResult end_;
  std::size_t i_ = 0;
  std::size_t j_ = 0;
  State state_ = State::kH;
  bool done_ = true;
  std::string ops_;  ///< emitted back to front
};

/// Traces one pair. Endpoints follow the canonical improves() tie-break of
/// every score-pass implementation (align::smith_waterman_banded at the
/// same band); the CIGAR is bit-identical to
/// smith_waterman_traceback(ref, query, scoring, band). A banded trace never
/// leaves |i - j| <= band.
TracebackResult banded_traceback(std::span<const seq::BaseCode> ref,
                                 std::span<const seq::BaseCode> query,
                                 const ScoringScheme& scoring,
                                 const TracebackParams& params = {});

}  // namespace saloba::align
