// Banded Smith–Waterman (paper Sec. VII-B, "Banded Algorithms" — future
// work). Only cells with |i - j| <= band are computed; everything outside
// the band behaves as score 0 / -inf, so a band >= max(|ref|,|query|)
// reproduces the full algorithm exactly (property-tested).
#pragma once

#include <span>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {

struct BandedResult {
  AlignmentResult result;
  std::size_t cells_computed = 0;  ///< DP cells actually evaluated
};

/// Only cells with |i - j| <= band are computed; band == 0 computes the full
/// table (exact Smith–Waterman), seq::PairBatch::band_of's convention.
BandedResult smith_waterman_banded(std::span<const seq::BaseCode> ref,
                                   std::span<const seq::BaseCode> query,
                                   const ScoringScheme& scoring, std::size_t band);

}  // namespace saloba::align
