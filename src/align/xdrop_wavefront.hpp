// Ultra-long-read X-drop wavefront engine (LOGAN-style regime).
//
// Executes the affine-gap local-alignment DP along anti-diagonals d = i + j
// (the paper's Fig. 3 intra-query parallelism: every cell of diagonal d
// depends only on diagonals d-1 and d-2) with an X-drop live window per
// diagonal, and recovers the CIGAR with Myers–Miller divide-and-conquer in
// O(N + M) memory — 100kb+ pairs never materialize an O(N·M) matrix and
// never blow the checkpointed-traceback budget.
//
// ## Forward pass (masked wavefront)
//
// Per diagonal d the engine keeps a live window [lo_d, hi_d] in reference
// coordinates i. window_0 = [0, 0]; the cells computed on diagonal d are the
// window intersected with the valid range [max(0, d-m+1), min(n-1, d)].
// After computing a diagonal the global best B is updated under the
// canonical improves() tie-break; a computed cell is *live* iff
// H >= B - X, and window_{d+1} = [lo_live, hi_live + 1] (the left/up
// successors of the live set). An empty live set terminates the sweep
// (`xdropped`). `xdrop <= 0` disables pruning: the windows then provably
// cover the whole valid range and the sweep is exact Smith-Waterman, which
// the conformance suites check against the row-major and banded oracles.
//
// Cells that were never computed (outside every window) read H = 0 (the
// local floor) and E/F = -inf, exactly like out-of-band cells in
// smith_waterman_banded. The computed windows are recorded (two ints per
// diagonal, O(N + M) total), which turns the history-dependent X-drop
// pruning into a *positional mask*: the pruned DP is a pure function of
// (sequences, scoring, mask) and can be recomputed exactly in any
// sub-rectangle. That property is what makes a deterministic linear-memory
// traceback possible at all.
//
// ## Traceback (three phases, all O(N + M) memory)
//
//  A. The forward masked pass above, recording the per-diagonal windows,
//     per-row column bounds, and the best endpoint (S, ei, ej).
//  B. Start discovery: a *global* (Needleman-Wunsch, no floor) affine DP
//     over the reversed prefixes rref[k] = ref[ei-k], rqry[l] = query[ej-l],
//     masked the same way (dead cells = -inf in every state, virtual
//     boundary rows/cols pay normal gap costs). Its maximum equals S — every
//     optimal forward path lies inside the mask and optimal local paths
//     carry no leading/trailing gaps — and the canonical start is the
//     argmax with the smallest k, then the smallest l (reverse coordinates).
//     Rolling rows: O(M) memory.
//  C. Myers–Miller divide-and-conquer over ref[si..ei] x query[sj..ej] on
//     the same mask. Rows split at mid = (i0 + i1) / 2; the forward sweep
//     carries (CC, DD) = best score ending free / ending in a vertical gap,
//     the backward sweep (RR, SS) symmetrically; crossing candidates at
//     column j are CC[j] + RR[j] (type H) and DD[j] + SS[j] + (alpha - beta)
//     (type F, refunding the double gap-open of a run that spans the split).
//     Tie-break: best value, then the smaller j, then type H over type F; a
//     type-F crossing emits the two boundary deletions explicitly and
//     recurses with the gap marked open. Single-row subproblems are solved
//     by a closed-form scan (substitution placement beats the all-gap form
//     on ties; among placements the smallest column wins; the all-gap form
//     attaches its deletion to the top boundary unless the bottom is
//     strictly cheaper). The canonical CIGAR is *defined* by these rules:
//     the naive full-matrix oracle (align/xdrop_reference.hpp) implements
//     the same specification with independent O(N·M) code, and the fuzz
//     suite asserts bit-identity of score, endpoint, and CIGAR.
#pragma once

#include <cstddef>
#include <span>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {

struct XDropParams {
  /// X-drop threshold: cells scoring below best-so-far minus `xdrop` leave
  /// the live window. <= 0 disables pruning (exact Smith-Waterman).
  Score xdrop = 0;

  bool operator==(const XDropParams&) const = default;
};

/// What one wavefront run computed and spent.
struct WavefrontStats {
  std::size_t cells = 0;          ///< forward-pass DP cells computed
  std::size_t traceback_cells = 0;  ///< phase B + phase C sweep cells
  std::size_t diagonals = 0;      ///< anti-diagonals swept before termination
  std::size_t max_wavefront = 0;  ///< widest computed window, in cells
  /// Peak heap footprint in bytes, measured from the engine's live container
  /// capacities at every phase boundary (not a model): diagonal buffers,
  /// window/row-bound records, rolling rows, divide-and-conquer arrays and
  /// the op string. The bench asserts this stays O(N + M).
  std::size_t peak_bytes = 0;
  bool xdropped = false;  ///< forward sweep terminated early via X-drop
};

/// Forward masked wavefront only: best local score + canonical endpoint
/// under the improves() tie-break. With params.xdrop <= 0 this is exact
/// Smith-Waterman (bit-identical to align::smith_waterman).
AlignmentResult xdrop_wavefront_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params = {},
                                      WavefrontStats* stats = nullptr);

/// Full alignment in O(N + M) memory: forward masked pass, reverse-prefix
/// start discovery, Myers–Miller canonical CIGAR (see the file comment for
/// the exact specification). `end` equals xdrop_wavefront_score's result;
/// the CIGAR rescores to exactly that score.
TracedAlignment xdrop_wavefront_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params = {},
                                      WavefrontStats* stats = nullptr);

/// Cost-model estimate of the forward-pass cell count for an (n x m) pair —
/// the scheduler's packing load for routed long-read pairs, where the
/// nominal n·m table would absurdly overweight them. The live window is
/// score-bounded: moving sideways costs at least beta per step, so its width
/// is at most ~2·xdrop/beta + 1 cells around the best path. Capped at the
/// full table.
std::size_t xdrop_cells_estimate(std::size_t ref_len, std::size_t query_len, Score xdrop,
                                 const ScoringScheme& scoring);

}  // namespace saloba::align
