#include "align/sw_banded.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace saloba::align {
namespace {
constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;
}

BandedResult smith_waterman_banded(std::span<const seq::BaseCode> ref,
                                   std::span<const seq::BaseCode> query,
                                   const ScoringScheme& scoring, std::size_t band) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  // band == 0 means unbanded: a band covering the whole table reproduces
  // plain Smith–Waterman exactly, so this one loop serves both.
  if (band == 0) band = std::max(n, m);
  BandedResult out;
  if (n == 0 || m == 0) return out;

  // Row arrays indexed by query position; cells outside the band read as
  // H = 0 is wrong for E/F chains, so out-of-band reads H = 0, E/F = -inf:
  // the local-alignment zero floor makes H=0 the correct neutral element,
  // while gaps cannot extend across the band boundary.
  std::vector<Score> h_row(m + 1, 0), f_col(m + 1, kNegInf);
  AlignmentResult best;
  for (std::size_t i = 0; i < n; ++i) {
    // Band limits for this row: j in [i-band, i+band] (clamped).
    std::size_t j_lo = (i >= band) ? i - band : 0;
    std::size_t j_hi = std::min(m - 1, i + band);
    if (j_lo > j_hi) continue;

    Score h_diag = (j_lo == 0) ? 0 : h_row[j_lo];  // H(i-1, j_lo-1)
    // Cells left of the band boundary are out of band for this row.
    Score h_left = 0;
    Score e = kNegInf;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      e = std::max(h_left - scoring.alpha(), e - scoring.beta());
      Score f = std::max(h_row[j + 1] - scoring.alpha(), f_col[j + 1] - scoring.beta());
      Score h =
          std::max({Score{0}, h_diag + scoring.substitution(ref[i], query[j]), e, f});

      h_diag = h_row[j + 1];
      h_row[j + 1] = h;
      f_col[j + 1] = f;
      h_left = h;
      ++out.cells_computed;

      if (h > best.score) {
        best = AlignmentResult{h, static_cast<std::int32_t>(i), static_cast<std::int32_t>(j)};
      }
    }
    // No band-edge resets are needed: the band advances one column per row,
    // so every neighbour an in-band cell reads was either in-band on the
    // previous row (true value) or never written (0 / -inf initial state,
    // the out-of-band semantics).
  }
  out.result = best;
  return out;
}

}  // namespace saloba::align
