// Naive full-matrix oracle for the X-drop wavefront engine
// (align/xdrop_wavefront.hpp). Implements the same specification — the
// per-diagonal live windows, then the canonical walk over the masked DP —
// with independent O(N·M) code: full H/E/F matrices, an explicit
// computed-cell mask, and the full-matrix walk over the stored values that
// align::smith_waterman_traceback also runs (trace_stored_matrix), not the
// engine's checkpoint replay and flag-byte TraceWalk. The fuzz suite
// asserts the two are bit-identical in score, endpoint and CIGAR, and in
// the cells, diagonals, widest window and X-drop termination the engine
// reports. Tests and moderate lengths only.
#pragma once

#include <span>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "align/xdrop_wavefront.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {

/// Forward masked pass on full matrices: best score + canonical endpoint.
AlignmentResult xdrop_reference_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params = {});

/// Full alignment on full matrices: the forward pass above, then the walk
/// back from the best cell over the stored tables, stopping at H = 0. A
/// non-null `stats` receives `cells`, `diagonals` and `max_wavefront`
/// counted from the computed-cell mask, and `xdropped` from the pass's own
/// termination; its other fields stay 0.
TracedAlignment xdrop_reference_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params = {},
                                      WavefrontStats* stats = nullptr);

}  // namespace saloba::align
