#include "align/xdrop_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "align/traceback.hpp"
#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

using Matrix = std::vector<std::vector<Score>>;
using BoolMatrix = std::vector<std::vector<char>>;

Matrix make_matrix(std::size_t rows, std::size_t cols, Score fill) {
  return Matrix(rows, std::vector<Score>(cols, fill));
}

/// Everything the forward pass leaves behind: full H/E/F tables plus the
/// computed-cell mask (exactly the cells the per-diagonal windows covered).
/// Cells outside the mask keep H = 0, E/F = -inf.
struct ForwardTables {
  Matrix H, E, F;
  BoolMatrix computed;
  AlignmentResult best;
  bool xdropped = false;  ///< the pass ended on the X-drop rule
};

/// The masked forward pass of the specification on full matrices: the same
/// per-diagonal window evolution, but every value is stored.
ForwardTables forward_full(std::span<const seq::BaseCode> ref,
                           std::span<const seq::BaseCode> query,
                           const ScoringScheme& scoring, const XDropParams& params) {
  const std::int64_t n = static_cast<std::int64_t>(ref.size());
  const std::int64_t m = static_cast<std::int64_t>(query.size());
  ForwardTables t;
  if (n == 0 || m == 0) return t;

  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(m);
  t.H = make_matrix(un, um, 0);
  t.E = make_matrix(un, um, kNegInf);
  t.F = make_matrix(un, um, kNegInf);
  t.computed.assign(un, std::vector<char>(um, 0));

  std::int64_t win_lo = 0, win_hi = 0;
  for (std::int64_t d = 0; d < n + m - 1; ++d) {
    const std::int64_t v_lo = d >= m ? d - m + 1 : 0;
    const std::int64_t v_hi = std::min(n - 1, d);
    const std::int64_t lo = std::max(win_lo, v_lo);
    const std::int64_t hi = std::min(win_hi, v_hi);
    if (lo > hi) {
      t.xdropped = params.xdrop > 0;
      break;
    }

    for (std::int64_t i = lo; i <= hi; ++i) {
      const std::int64_t j = d - i;
      const auto ui = static_cast<std::size_t>(i);
      const auto uj = static_cast<std::size_t>(j);
      const bool left_ok = j > 0 && t.computed[ui][uj - 1] != 0;
      const bool up_ok = i > 0 && t.computed[ui - 1][uj] != 0;
      const bool diag_ok = i > 0 && j > 0 && t.computed[ui - 1][uj - 1] != 0;
      const Score h_left = left_ok ? t.H[ui][uj - 1] : 0;
      const Score e_left = left_ok ? t.E[ui][uj - 1] : kNegInf;
      const Score h_up = up_ok ? t.H[ui - 1][uj] : 0;
      const Score f_up = up_ok ? t.F[ui - 1][uj] : kNegInf;
      const Score h_diag = diag_ok ? t.H[ui - 1][uj - 1] : 0;

      const Score e = std::max(h_left - alpha, e_left - beta);
      const Score f = std::max(h_up - alpha, f_up - beta);
      const Score h =
          std::max({Score{0}, h_diag + scoring.substitution(ref[ui], query[uj]), e, f});
      t.H[ui][uj] = h;
      t.E[ui][uj] = e;
      t.F[ui][uj] = f;
      t.computed[ui][uj] = 1;
      take_better(t.best, AlignmentResult{h, static_cast<std::int32_t>(i),
                                          static_cast<std::int32_t>(j)});
    }

    std::int64_t live_lo = lo, live_hi = hi;
    if (params.xdrop > 0) {
      const Score floor = t.best.score - params.xdrop;
      while (live_lo <= hi &&
             t.H[static_cast<std::size_t>(live_lo)][static_cast<std::size_t>(d - live_lo)] <
                 floor) {
        ++live_lo;
      }
      while (live_hi >= live_lo &&
             t.H[static_cast<std::size_t>(live_hi)][static_cast<std::size_t>(d - live_hi)] <
                 floor) {
        --live_hi;
      }
      if (live_lo > live_hi) {
        t.xdropped = true;
        break;
      }
    }
    win_lo = live_lo;
    win_hi = live_hi + 1;
  }

  if (t.best.score == 0) t.best = AlignmentResult{};
  return t;
}

}  // namespace

AlignmentResult xdrop_reference_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring,
                                      const XDropParams& params) {
  SALOBA_CHECK(scoring.valid());
  return forward_full(ref, query, scoring, params).best;
}

TracedAlignment xdrop_reference_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  const ForwardTables fwd = forward_full(ref, query, scoring, params);
  if (stats != nullptr) {
    // Counted from the mask, cell by cell, per anti-diagonal i + j.
    *stats = WavefrontStats{};
    std::vector<std::size_t> per_diagonal(ref.size() + query.size(), 0);
    for (std::size_t i = 0; i < fwd.computed.size(); ++i) {
      for (std::size_t j = 0; j < fwd.computed[i].size(); ++j) {
        if (fwd.computed[i][j] == 0) continue;
        ++stats->cells;
        ++per_diagonal[i + j];
        stats->diagonals = std::max(stats->diagonals, i + j + 1);
      }
    }
    for (const std::size_t width : per_diagonal) {
      stats->max_wavefront = std::max(stats->max_wavefront, width);
    }
    stats->xdropped = fwd.xdropped;
  }
  // Never-computed cells kept H = 0, E/F = -inf, so the plain full-matrix
  // walk over the stored tables is the walk over the masked DP.
  return trace_stored_matrix(fwd.best, ref, query, scoring, [&](std::size_t i, std::size_t j) {
    if (i == 0 || j == 0) return StoredCell{0, kNegInf, kNegInf};
    return StoredCell{fwd.H[i - 1][j - 1], fwd.E[i - 1][j - 1], fwd.F[i - 1][j - 1]};
  });
}

}  // namespace saloba::align
