// Striped Smith–Waterman (Farrar, 2007) — the SIMD-friendly CPU layout used
// by production aligners (SSW, BWA-MEM's ksw). The query is split into
// `kStripeLanes` interleaved segments so the inner loop is a chain of
// independent lane-wise operations the compiler can vectorise; the F
// dependency is resolved by Farrar's lazy-F correction loop.
//
// End positions are recovered row-wise: after each reference row's lazy-F
// settles, an improving row max is de-striped back to the smallest query
// index — reproducing the scalar reference's canonical tie-break (smallest
// ref_end, then smallest query_end) without per-cell bookkeeping in the hot
// loop. Verified against the scalar reference in tests.
#pragma once

#include <span>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {

inline constexpr int kStripeLanes = 8;

/// Striped alignment with end positions: bit-identical (score, ref_end,
/// query_end) to align::smith_waterman. The single-pair int32 settlement
/// path of the SIMD batch engine (align/simd_engine.hpp).
AlignmentResult smith_waterman_striped_ends(std::span<const seq::BaseCode> ref,
                                            std::span<const seq::BaseCode> query,
                                            const ScoringScheme& scoring);

}  // namespace saloba::align
