#include "align/sw_striped.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr int V = kStripeLanes;

/// A "vector register": V int32 lanes, operated on lane-wise in plain loops
/// the compiler auto-vectorises.
struct Vec {
  Score lane[V];

  static Vec splat(Score v) {
    Vec out;
    for (auto& l : out.lane) l = v;
    return out;
  }
};

inline Vec max_vec(const Vec& a, const Vec& b) {
  Vec out;
  for (int k = 0; k < V; ++k) out.lane[k] = std::max(a.lane[k], b.lane[k]);
  return out;
}

inline Vec sub_sat0(const Vec& a, Score s) {
  // Subtract with a floor at 0 — the local-alignment clamp Farrar exploits
  // with saturating arithmetic.
  Vec out;
  for (int k = 0; k < V; ++k) out.lane[k] = std::max(a.lane[k] - s, Score{0});
  return out;
}

inline bool any_greater(const Vec& a, const Vec& b) {
  for (int k = 0; k < V; ++k) {
    if (a.lane[k] > b.lane[k]) return true;
  }
  return false;
}

/// Shift lanes toward higher indices by one, inserting zero at lane 0
/// (Farrar's vector shift between reference steps).
inline Vec shift_in_zero(const Vec& a) {
  Vec out;
  out.lane[0] = 0;
  for (int k = 1; k < V; ++k) out.lane[k] = a.lane[k - 1];
  return out;
}

}  // namespace

AlignmentResult smith_waterman_striped_ends(std::span<const seq::BaseCode> ref,
                                            std::span<const seq::BaseCode> query,
                                            const ScoringScheme& scoring) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t m = query.size();
  const std::size_t n = ref.size();
  AlignmentResult best;
  if (m == 0 || n == 0) return best;

  const std::size_t seg = (m + V - 1) / V;  // stripe (segment) length
  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();

  // Query profile: for each base b and segment position i, the vector of
  // substitution scores for query positions {i, i+seg, i+2seg, ...}.
  // Padding positions get a harsh penalty so they never contribute.
  std::vector<Vec> profile(static_cast<std::size_t>(seq::kAlphabetSize) * seg);
  for (int b = 0; b < seq::kAlphabetSize; ++b) {
    for (std::size_t i = 0; i < seg; ++i) {
      Vec& v = profile[static_cast<std::size_t>(b) * seg + i];
      for (int k = 0; k < V; ++k) {
        std::size_t j = static_cast<std::size_t>(k) * seg + i;
        v.lane[k] = j < m ? scoring.substitution(static_cast<seq::BaseCode>(b), query[j])
                          : static_cast<Score>(-(1 << 20));
      }
    }
  }

  std::vector<Vec> h(seg, Vec::splat(0)), e(seg, Vec::splat(0)), h_new(seg);

  for (std::size_t r = 0; r < n; ++r) {
    const Vec* prof = &profile[static_cast<std::size_t>(ref[r]) * seg];

    // H diagonal feed: last segment's H from the previous row, lanes
    // shifted by one (query positions move by `seg` per lane step).
    Vec vh = shift_in_zero(h[seg - 1]);
    Vec vf = Vec::splat(0);

    for (std::size_t i = 0; i < seg; ++i) {
      // H(i,j) candidate from the diagonal + substitution, then E and F.
      Vec score;
      for (int k = 0; k < V; ++k) {
        score.lane[k] = std::max(vh.lane[k] + prof[i].lane[k], Score{0});
      }
      score = max_vec(score, e[i]);
      score = max_vec(score, vf);
      h_new[i] = score;

      // Next-column E and F (pre-decayed for the following reference row /
      // the next segment position respectively).
      e[i] = max_vec(sub_sat0(score, alpha), sub_sat0(e[i], beta));
      vf = max_vec(sub_sat0(score, alpha), sub_sat0(vf, beta));

      vh = h[i];  // becomes the diagonal for the next segment position
    }

    // Lazy-F: F values must wrap across the stripe boundary. Keep
    // propagating while any lane still improves.
    for (int pass = 0; pass < V; ++pass) {
      vf = shift_in_zero(vf);
      bool changed = false;
      for (std::size_t i = 0; i < seg; ++i) {
        Vec cand = vf;
        if (!any_greater(cand, sub_sat0(h_new[i], alpha))) {
          // F cannot improve H here nor propagate further usefully.
          bool can_propagate = false;
          for (int k = 0; k < V; ++k) {
            if (cand.lane[k] - beta > h_new[i].lane[k] - alpha) {
              can_propagate = true;
              break;
            }
          }
          if (!can_propagate) break;
        }
        Vec merged = max_vec(h_new[i], cand);
        for (int k = 0; k < V; ++k) {
          if (merged.lane[k] != h_new[i].lane[k]) changed = true;
        }
        h_new[i] = merged;
        // Updated H may extend E for the next row as well.
        e[i] = max_vec(e[i], sub_sat0(merged, alpha));
        vf = max_vec(sub_sat0(merged, alpha), sub_sat0(cand, beta));
      }
      if (!changed) break;
    }

    // Endpoint recovery: once the row's H is final (lazy-F settled), an
    // improving row maximum pins ref_end = r; de-striping the first query
    // index holding it pins query_end. A strictly-improving row is exactly
    // the scalar reference's first row carrying the final best, so the
    // canonical tie-break (smallest ref_end, then query_end) is preserved.
    Vec row_max_v = h_new[0];
    for (std::size_t i = 1; i < seg; ++i) row_max_v = max_vec(row_max_v, h_new[i]);
    Score row_max = 0;
    for (int k = 0; k < V; ++k) row_max = std::max(row_max, row_max_v.lane[k]);
    if (row_max > best.score) {
      for (std::size_t j = 0; j < m; ++j) {
        if (h_new[j % seg].lane[j / seg] == row_max) {
          best = AlignmentResult{row_max, static_cast<std::int32_t>(r),
                                 static_cast<std::int32_t>(j)};
          break;
        }
      }
    }

    std::swap(h, h_new);
  }
  return best;
}

}  // namespace saloba::align
