// Host-parallel batch alignment — the CPU execution backend of the public
// API (core/aligner.hpp) and the oracle for kernel verification tests.
#pragma once

#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace saloba::align {

struct BatchTiming {
  double wall_ms = 0.0;
  std::size_t cells = 0;      ///< DP cells computed
  double gcups = 0.0;         ///< giga cell-updates per second
};

/// Aligns every (query, ref) pair; OpenMP-parallel across pairs when
/// available, capped at `threads` host threads (0 = the default team).
/// Deterministic: output order matches input order.
///
/// Pairs carrying a band (seq::PairBatch::band_of) run through
/// smith_waterman_banded at that band — bit-identical to what the banded
/// simulated kernels produce for the same batch.
std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring,
                                         BatchTiming* timing = nullptr, int threads = 0);

}  // namespace saloba::align
