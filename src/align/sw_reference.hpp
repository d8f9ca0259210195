// Scalar CPU reference implementations of the DP recurrences. These are the
// ground truth every simulated GPU kernel is verified against.
#pragma once

#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {

/// Local alignment (Smith–Waterman, affine gaps). Row-major scan with O(M)
/// working memory; i indexes the reference, j the query, as in the paper.
AlignmentResult smith_waterman(std::span<const seq::BaseCode> ref,
                               std::span<const seq::BaseCode> query,
                               const ScoringScheme& scoring);

/// Full H matrix of the local alignment, (|ref|+1) x (|query|+1), row-major.
/// Exposed for traceback and for tests that inspect the DP table directly.
/// Large inputs: O(N*M) memory — callers are expected to keep N,M moderate.
std::vector<Score> smith_waterman_matrix(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring);

}  // namespace saloba::align
