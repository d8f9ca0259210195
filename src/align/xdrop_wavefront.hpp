// Ultra-long-read X-drop wavefront engine (LOGAN-style regime).
//
// Executes the affine-gap local-alignment DP along anti-diagonals d = i + j
// (the paper's Fig. 3 intra-query parallelism: every cell of diagonal d
// depends only on diagonals d-1 and d-2) with an X-drop live window per
// diagonal, and recovers the CIGAR by replaying checkpointed blocks of
// diagonals for the shared flag-byte walk (align::TraceWalk) in O(N + M)
// memory while the window stays narrow — pruned 100kb+ pairs never
// materialize an O(N·M) matrix.
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
// (sequences, scoring, mask) and any run of diagonals can be recomputed
// exactly from the state entering it.
//
// ## The cell body (16 or 8 lanes per diagonal)
//
// One cell body (align/xdrop_kernel.hpp) serves the forward sweep and the
// block replay. It runs along the anti-diagonal in 16 int16 lanes or 8
// int32 lanes per vector (see "Lane width") — an AVX2 instantiation when
// the build has it and the CPU reports it, decided once per call, the
// portable generic one otherwise; both give the same bits — and tests no
// window per cell:
//
//  * sentinels replace the window tests. Each diagonal buffer has one slot
//    before i = 0 and 16 after i = n - 1, and after a diagonal [lo, hi] is
//    swept (or restored from a checkpoint) cells lo - 1 and hi + 1 hold the
//    never-computed values. Windows only shrink on the left and grow by at
//    most one cell on the right, so every neighbour a computed cell reads is
//    either in the previous windows or one of those sentinels, the table's
//    i = 0 and j = 0 borders included;
//  * both sequences load forward: the engine keeps a padded copy of the
//    reference and a padded, reversed copy of the query, so the cells of a
//    diagonal read both in increasing order;
//  * lanes past hi compute garbage that never reaches the diagonal's max,
//    the search for its best cell (the smallest i holding that max, offered
//    to improves()), or the walk.
//
// The live-window scans, the checkpoint spacing and the walk stay scalar.
//
// ## Lane width (int16 when the pair's scores fit, else int32)
//
// Both calls pick the lane type once per pair from (n, m, scoring) alone,
// so the forward sweep and the block replay of a pair run the same lanes,
// and WavefrontStats::lane_bits reports which. The int16 lanes are exact
// wherever every value a computed cell can take fits int16:
//
//  * a computed cell has 0 <= H <= match·min(n, m), so E and F, the max of
//    H - alpha and an earlier E or F minus beta, stay >= -alpha, and every
//    intermediate (E_left - beta, the diagonal term H + S) lies in
//    [-max(alpha + beta, mismatch), match·min(n, m)];
//  * the -inf sentinels are INT16_MIN, and int16 add and subtract saturate,
//    so a sentinel stays INT16_MIN (wrapping would turn E_left - beta into
//    +32767). Every compare of the flag bits then gives the int32 answer;
//  * lanes past hi may saturate; they are masked as at int32.
//
// So int16 runs when match·(min(n, m) + 1), alpha + beta and mismatch are
// all below 32767: mapbench's 12 kbp reads at match 1 fit, the long-read
// suite's 100 kbp reads take the int32 lanes, whose values wrap only in
// lanes past hi. int16 halves the bytes of the diagonal buffers and the
// checkpoints.
//
// ## Traceback (checkpointed replay, the canonical walk)
//
// The canonical CIGAR is the align::TraceWalk order over the masked DP —
// M before E before F, gap opens before extensions, stopping at H = 0 —
// the walk banded_traceback and the SIMD cohorts run too:
//
//  1. The traced forward pass saves a checkpoint — the H/E/F window of
//     diagonal d0-1 and the H window of d0-2, all that diagonal d0 reads —
//     whenever 8·(N + M) cells have been swept since the last one. The
//     spacing is in cells, not diagonals, because the window is not narrow
//     everywhere: until the best score exceeds X every computed cell is
//     live, so the window grows by one cell per diagonal (~700–1,000 cells
//     on mapbench's 12 kbp reads at X = 200, whose genome windows start
//     256 bases before the mapped read).
//  2. From the best cell, the walk's diagonal dw selects the block whose
//     checkpoint precedes it; diagonals [d0, dw] are replayed with the
//     forward pass's own cell body, storing one align::TraceFlag byte per
//     computed cell (never-computed cells read kTraceZero alone), and the
//     walk runs until it leaves the block.
//
// Blocks are visited in decreasing order, each at most once and only up to
// the walk's entry diagonal, so `traceback_cells <= cells`. Memory is the
// diagonal buffers, the padded sequence copies and the windows (O(N + M)),
// one block of at most 8·(N + M) flag bytes plus one diagonal and 15 bytes
// of tail slack, and the checkpoints: 4 lanes per window cell (16 bytes at
// int32, 8 at int16) every 8·(N + M) swept cells, about 2·W² bytes for
// windows W cells wide at int32 — O(N + M) while X-drop keeps the window
// narrow. With pruning off on a long divergent pair the window spans the
// table, and the checkpoints grow to the order of N·M bytes as the forward
// cells grow to N·M. The naive full-matrix oracle (align/xdrop_reference.hpp)
// walks its stored tables with independent code, and the fuzz suite asserts
// bit-identity of score, endpoint, CIGAR and the computed cells' counts;
// with `xdrop <= 0` both equal smith_waterman_traceback.
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
  /// Cells the traceback's block replays re-derived (<= cells: each block
  /// at most once, up to the walk's entry diagonal).
  std::size_t traceback_cells = 0;
  std::size_t diagonals = 0;      ///< anti-diagonals swept before termination
  std::size_t max_wavefront = 0;  ///< widest computed window, in cells
  /// Bits per lane of the cell body that ran: 16 when the pair's score
  /// bound fits int16, else 32 (header, "Lane width"). An output, decided
  /// from (n, m, scoring) alone.
  std::size_t lane_bits = 0;
  /// Peak heap footprint in bytes, measured from the engine's live container
  /// capacities at every phase boundary (not a model): diagonal buffers and
  /// padded sequence copies (padding included), per-diagonal windows,
  /// checkpoints, the replayed block's flag bytes and slack, and the op
  /// string. The bench asserts this stays O(N + M).
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

/// Full alignment in O(N + M) memory: checkpointed forward masked pass, then
/// the canonical TraceWalk over replayed blocks (see the file comment).
/// `end` equals xdrop_wavefront_score's result; the CIGAR rescores to
/// exactly that score.
TracedAlignment xdrop_wavefront_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params = {},
                                      WavefrontStats* stats = nullptr);

/// Cost-model estimate of the forward-pass cell count for an (n x m) pair —
/// the scheduler's packing load for routed long-read pairs, where the
/// nominal n·m table would absurdly overweight them. Prices every diagonal
/// at ~2·xdrop/beta + 1 cells: once the best score exceeds xdrop, moving
/// sideways costs at least beta per step, so the live window stays about
/// that wide around the best path. Before then nothing can fall xdrop below
/// the best and the window grows one cell per diagonal, so this is a
/// packing hint, not a bound: a pair whose sweep starts far before the
/// alignment can exceed it. mapbench's 12 kbp reads at xdrop 200, whose
/// windows start 256 bases before the mapped read, reach ~700–1,000 cells
/// and sweep ~3.9M cells per pair against ~9.8M estimated. Capped at the
/// full table.
std::size_t xdrop_cells_estimate(std::size_t ref_len, std::size_t query_len, Score xdrop,
                                 const ScoringScheme& scoring);

}  // namespace saloba::align
