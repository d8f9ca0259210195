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
  bool zdropped = false;           ///< z-drop terminated the row sweep early
};

/// Banding + optional z-drop pruning, the CPU-side shape of the pipeline's
/// Sec. VII-B extension path (seq::PairBatch::band_of, core::AlignerOptions
/// zdrop).
struct BandedParams {
  /// Only cells with |i - j| <= band are computed; 0 = full table.
  std::size_t band = 0;
  /// BWA-MEM-style early termination: stop sweeping rows once a row's best
  /// H trails the global best by more than zdrop (<= 0 disables). A
  /// heuristic — it can miss the true local optimum, like the real tools.
  Score zdrop = 0;
};

BandedResult smith_waterman_banded(std::span<const seq::BaseCode> ref,
                                   std::span<const seq::BaseCode> query,
                                   const ScoringScheme& scoring, std::size_t band);

/// General form: band == 0 computes the full table (exact Smith–Waterman),
/// so the banded implementation is also the z-drop-only pruner.
BandedResult smith_waterman_banded(std::span<const seq::BaseCode> ref,
                                   std::span<const seq::BaseCode> query,
                                   const ScoringScheme& scoring, const BandedParams& params);

}  // namespace saloba::align
