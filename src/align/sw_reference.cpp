#include "align/sw_reference.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace saloba::align {
namespace {
constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;
}

AlignmentResult smith_waterman(std::span<const seq::BaseCode> ref,
                               std::span<const seq::BaseCode> query,
                               const ScoringScheme& scoring) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  AlignmentResult best;
  if (n == 0 || m == 0) return best;

  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();

  // h_row[j+1] holds H(i-1, j) when row i reads it, then H(i, j) after the
  // update. f_col[j+1] likewise carries F down the column. E is carried as a
  // scalar along the row (Eq. 2 depends only on the left neighbour).
  std::vector<Score> h_row(m + 1, 0);
  std::vector<Score> f_col(m + 1, kNegInf);

  for (std::size_t i = 0; i < n; ++i) {
    Score h_diag = 0;  // H(i-1, -1): the local-mode zero boundary
    Score h_left = 0;  // H(i, j-1)
    Score e = kNegInf; // E(i, j-1)
    for (std::size_t j = 0; j < m; ++j) {
      e = std::max(h_left - alpha, e - beta);                    // E(i,j), Eq. 2
      Score f = std::max(h_row[j + 1] - alpha, f_col[j + 1] - beta);  // F(i,j), Eq. 3
      Score h = std::max({Score{0}, h_diag + scoring.substitution(ref[i], query[j]), e, f});

      h_diag = h_row[j + 1];
      h_row[j + 1] = h;
      f_col[j + 1] = f;
      h_left = h;

      // Strictly-greater keeps the row-major-first cell on ties, which is
      // exactly the `improves` ordering (smallest i, then smallest j).
      if (h > best.score) {
        best = AlignmentResult{h, static_cast<std::int32_t>(i), static_cast<std::int32_t>(j)};
      }
    }
  }
  return best;
}

std::vector<Score> smith_waterman_matrix(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();

  std::vector<Score> h((n + 1) * (m + 1), 0);
  std::vector<Score> f_col(m + 1, kNegInf);
  auto at = [m](std::size_t i, std::size_t j) { return i * (m + 1) + j; };

  for (std::size_t i = 1; i <= n; ++i) {
    Score e = kNegInf;
    for (std::size_t j = 1; j <= m; ++j) {
      e = std::max(h[at(i, j - 1)] - alpha, e - beta);
      f_col[j] = std::max(h[at(i - 1, j)] - alpha, f_col[j] - beta);
      Score s = h[at(i - 1, j - 1)] + scoring.substitution(ref[i - 1], query[j - 1]);
      h[at(i, j)] = std::max({Score{0}, s, e, f_col[j]});
    }
  }
  return h;
}

}  // namespace saloba::align
