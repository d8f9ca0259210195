// Affine-gap scoring (paper Eq. 1–3).
//
//   H(i,j) = max(0, E(i,j), F(i,j), H(i-1,j-1) + S(i,j))
//   E(i,j) = max(H(i,j-1) - alpha, E(i,j-1) - beta)   // gap in the reference
//   F(i,j) = max(H(i-1,j) - alpha, F(i-1,j) - beta)   // gap in the query
//
// alpha is the cost of *opening* a gap (open + first extension), beta the
// cost of continuing one. Defaults follow BWA-MEM/GASAL2 conventions:
// match +1, mismatch -4, gap open 6, gap extend 1 (so alpha = 7, beta = 1).
#pragma once

#include <cstdint>

#include "seq/alphabet.hpp"

namespace saloba::align {

using Score = std::int32_t;

struct ScoringScheme {
  Score match = 1;
  Score mismatch = 4;    ///< stored positive; applied as a penalty
  Score gap_open = 6;    ///< penalty for opening a gap (excluding first extension)
  Score gap_extend = 1;  ///< penalty per gap base

  /// Penalty for the first base of a gap (paper's alpha).
  Score alpha() const { return gap_open + gap_extend; }
  /// Penalty for each further gap base (paper's beta).
  Score beta() const { return gap_extend; }

  /// Substitution score S(i,j). N never matches anything (including N),
  /// which is how BWA-MEM treats unknown bases.
  Score substitution(seq::BaseCode a, seq::BaseCode b) const {
    if (a == seq::kBaseN || b == seq::kBaseN) return -mismatch;
    return a == b ? match : -mismatch;
  }

  /// True if parameters are usable (positive penalties, positive match).
  bool valid() const {
    return match > 0 && mismatch >= 0 && gap_open >= 0 && gap_extend > 0;
  }
};

/// Throws std::invalid_argument naming `field` (the caller's option, e.g.
/// "AlignerOptions::scoring") unless `scoring` is valid(): a scheme is
/// caller input, so an unusable one is an input error, not a CHECK abort.
void require_valid(const ScoringScheme& scoring, const char* field);

/// The scheme used throughout the paper reproduction.
ScoringScheme default_scheme();

/// A more gap-tolerant scheme for long noisy reads (used in examples).
ScoringScheme long_read_scheme();

}  // namespace saloba::align
