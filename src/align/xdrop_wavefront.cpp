#include "align/xdrop_wavefront.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "align/traceback.hpp"
#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

template <class T>
std::size_t cap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// The positional mask one forward pass records: the computed window of
/// every swept diagonal plus a bounding column interval per row. Liveness of
/// a cell is a pure function of this record, so any sub-rectangle of the
/// pruned DP can be recomputed exactly (the linchpin of the linear-memory
/// traceback — see the header).
struct ForwardMask {
  /// Computed window of diagonal d in reference coordinates: cells (i, d-i)
  /// with clo[d] <= i <= chi[d] were evaluated. size() = diagonals swept.
  std::vector<std::int32_t> clo, chi;
  /// Bounding interval [row_jmin[i], row_jmax[i]] of row i's computed
  /// columns (jmin > jmax: the row was never touched). Bounds only — the
  /// per-row mask can be non-contiguous when the window shrinks — so sweeps
  /// use them as loop limits and still check live() per cell.
  std::vector<std::int32_t> row_jmin, row_jmax;

  bool live(std::int64_t i, std::int64_t j) const {
    const std::int64_t d = i + j;
    if (d < 0 || d >= static_cast<std::int64_t>(clo.size())) return false;
    const auto dd = static_cast<std::size_t>(d);
    return clo[dd] <= i && i <= chi[dd];
  }

  std::size_t bytes() const {
    return cap_bytes(clo) + cap_bytes(chi) + cap_bytes(row_jmin) + cap_bytes(row_jmax);
  }
};

/// Forward masked wavefront: anti-diagonal sweep with per-diagonal X-drop
/// live windows (header, "Forward pass"). Fills `mask` when non-null.
AlignmentResult wavefront_forward(std::span<const seq::BaseCode> ref,
                                  std::span<const seq::BaseCode> query,
                                  const ScoringScheme& scoring, const XDropParams& params,
                                  ForwardMask* mask, WavefrontStats& stats) {
  const std::int64_t n = static_cast<std::int64_t>(ref.size());
  const std::int64_t m = static_cast<std::int64_t>(query.size());
  AlignmentResult best;
  if (n == 0 || m == 0) return best;

  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();

  // Diagonal buffers indexed by reference position i: for cell (i, j) on
  // diagonal d, left (i, j-1) and up (i-1, j) live on d-1 at indices i and
  // i-1, diag (i-1, j-1) on d-2 at i-1. Values are meaningful only inside
  // each diagonal's computed window; reads outside it fall back to H = 0,
  // E/F = -inf (never-computed cells).
  std::vector<Score> h_d2(static_cast<std::size_t>(n), 0), h_d1 = h_d2, h_cur = h_d2;
  std::vector<Score> e_d1(static_cast<std::size_t>(n), kNegInf), e_cur = e_d1;
  std::vector<Score> f_d1 = e_d1, f_cur = e_d1;

  const std::int64_t diag_count = n + m - 1;
  if (mask != nullptr) {
    mask->clo.reserve(static_cast<std::size_t>(diag_count));
    mask->chi.reserve(static_cast<std::size_t>(diag_count));
    mask->row_jmin.assign(static_cast<std::size_t>(n), 1);
    mask->row_jmax.assign(static_cast<std::size_t>(n), 0);
  }
  std::size_t buf_bytes = cap_bytes(h_d2) * 3 + cap_bytes(e_d1) * 4;
  stats.peak_bytes = std::max(stats.peak_bytes,
                              buf_bytes + (mask != nullptr ? mask->bytes() : 0));

  // Computed windows of diagonals d-1 and d-2 ([lo, hi] in i, empty when
  // lo > hi) and the live window proposed for the current diagonal.
  std::int64_t p1_lo = 0, p1_hi = -1, p2_lo = 0, p2_hi = -1;
  std::int64_t win_lo = 0, win_hi = 0;

  for (std::int64_t d = 0; d < diag_count; ++d) {
    const std::int64_t v_lo = d >= m ? d - m + 1 : 0;
    const std::int64_t v_hi = std::min(n - 1, d);
    const std::int64_t lo = std::max(win_lo, v_lo);
    const std::int64_t hi = std::min(win_hi, v_hi);
    if (lo > hi) {
      // The live window slid off the valid range: nothing left to extend.
      stats.xdropped = params.xdrop > 0;
      break;
    }

    for (std::int64_t i = lo; i <= hi; ++i) {
      const std::int64_t j = d - i;
      const bool left_in = i >= p1_lo && i <= p1_hi;
      const bool up_in = i - 1 >= p1_lo && i - 1 <= p1_hi;
      const bool diag_in = i - 1 >= p2_lo && i - 1 <= p2_hi;
      // Out-of-table and never-computed neighbours alike: H reads 0 (the
      // local floor — equivalent to restarting the alignment here), E/F
      // read -inf (a gap cannot pass through an unevaluated cell).
      const Score h_left = (j == 0 || !left_in) ? 0 : h_d1[static_cast<std::size_t>(i)];
      const Score e_left =
          (j == 0 || !left_in) ? kNegInf : e_d1[static_cast<std::size_t>(i)];
      const Score h_up = (i == 0 || !up_in) ? 0 : h_d1[static_cast<std::size_t>(i - 1)];
      const Score f_up = (i == 0 || !up_in) ? kNegInf : f_d1[static_cast<std::size_t>(i - 1)];
      const Score h_diag =
          (i == 0 || j == 0 || !diag_in) ? 0 : h_d2[static_cast<std::size_t>(i - 1)];

      const Score e = std::max(h_left - alpha, e_left - beta);
      const Score f = std::max(h_up - alpha, f_up - beta);
      const Score h = std::max(
          {Score{0},
           h_diag + scoring.substitution(ref[static_cast<std::size_t>(i)],
                                         query[static_cast<std::size_t>(j)]),
           e, f});

      h_cur[static_cast<std::size_t>(i)] = h;
      e_cur[static_cast<std::size_t>(i)] = e;
      f_cur[static_cast<std::size_t>(i)] = f;
      take_better(best, AlignmentResult{h, static_cast<std::int32_t>(i),
                                        static_cast<std::int32_t>(j)});
    }

    stats.cells += static_cast<std::size_t>(hi - lo + 1);
    stats.max_wavefront = std::max(stats.max_wavefront, static_cast<std::size_t>(hi - lo + 1));
    stats.diagonals = static_cast<std::size_t>(d + 1);
    if (mask != nullptr) {
      mask->clo.push_back(static_cast<std::int32_t>(lo));
      mask->chi.push_back(static_cast<std::int32_t>(hi));
      for (std::int64_t i = lo; i <= hi; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        const auto j = static_cast<std::int32_t>(d - i);
        if (mask->row_jmin[ii] > mask->row_jmax[ii]) {
          mask->row_jmin[ii] = mask->row_jmax[ii] = j;
        } else {
          mask->row_jmin[ii] = std::min(mask->row_jmin[ii], j);
          mask->row_jmax[ii] = std::max(mask->row_jmax[ii], j);
        }
      }
    }

    // Live set: computed cells within X of the running best (all of them
    // when pruning is off). The next window covers its left/up successors.
    std::int64_t live_lo = lo, live_hi = hi;
    if (params.xdrop > 0) {
      const Score floor = best.score - params.xdrop;
      while (live_lo <= hi && h_cur[static_cast<std::size_t>(live_lo)] < floor) ++live_lo;
      while (live_hi >= live_lo && h_cur[static_cast<std::size_t>(live_hi)] < floor) --live_hi;
      if (live_lo > live_hi) {
        stats.xdropped = true;
        break;
      }
    }
    win_lo = live_lo;
    win_hi = live_hi + 1;

    p2_lo = p1_lo;
    p2_hi = p1_hi;
    p1_lo = lo;
    p1_hi = hi;
    std::swap(h_d2, h_d1);
    std::swap(h_d1, h_cur);
    std::swap(e_d1, e_cur);
    std::swap(f_d1, f_cur);
  }

  if (best.score == 0) return AlignmentResult{};
  return best;
}

/// Phase B: reverse-prefix start discovery. A global (no floor) affine DP
/// over rref[k] = ref[ei-k], rqry[l] = query[ej-l], masked — dead cells are
/// -inf in every state — swept with rolling rows restricted to each row's
/// mask bounds. Returns the canonical start (argmax, smallest k then
/// smallest l); the maximum provably equals `expect` (checked).
struct StartPoint {
  std::int64_t si = 0, sj = 0;
};

StartPoint discover_start(std::span<const seq::BaseCode> ref,
                          std::span<const seq::BaseCode> query,
                          const ScoringScheme& scoring, const ForwardMask& mask,
                          std::int64_t ei, std::int64_t ej, Score expect,
                          WavefrontStats& stats) {
  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();
  const Score g = alpha - beta;  // gap-open beyond the per-base extend
  const Score h = beta;

  // Rolling rows indexed by l+1 (index 0 = the virtual boundary column).
  const std::size_t width = static_cast<std::size_t>(ej) + 2;
  std::vector<Score> hrow(width), frow(width, kNegInf);
  stats.peak_bytes =
      std::max(stats.peak_bytes, mask.bytes() + cap_bytes(hrow) + cap_bytes(frow));

  // Virtual row k = -1: leading insertions along the top boundary.
  hrow[0] = 0;
  for (std::int64_t l = 0; l <= ej; ++l) {
    hrow[static_cast<std::size_t>(l) + 1] = -(g + static_cast<Score>(l + 1) * h);
  }
  std::int64_t p_lo = 0, p_hi = ej;  // prev row's computed l-range (full for the boundary)

  Score best = kNegInf;
  std::int64_t best_k = -1, best_l = -1;
  for (std::int64_t k = 0; k <= ei; ++k) {
    const std::int64_t i = ei - k;
    const auto ii = static_cast<std::size_t>(i);
    // Row bounds from the mask, translated to reverse coordinates.
    std::int64_t l_lo = 1, l_hi = 0;
    if (mask.row_jmin[ii] <= mask.row_jmax[ii]) {
      l_lo = std::max<std::int64_t>(0, ej - mask.row_jmax[ii]);
      l_hi = std::min(ej, ej - static_cast<std::int64_t>(mask.row_jmin[ii]));
    }

    const Score boundary = -(g + static_cast<Score>(k + 1) * h);
    const Score prev_boundary = hrow[0];
    hrow[0] = boundary;

    // Diagonal / left-state carries, guarded against the previous row's
    // computed range (stale entries outside it are dead).
    Score s = l_lo == 0 ? prev_boundary
                        : (l_lo - 1 >= p_lo && l_lo - 1 <= p_hi
                               ? hrow[static_cast<std::size_t>(l_lo - 1) + 1]
                               : kNegInf);
    Score hleft = l_lo == 0 ? boundary : kNegInf;
    Score e = kNegInf;
    for (std::int64_t l = l_lo; l <= l_hi; ++l) {
      const auto idx = static_cast<std::size_t>(l) + 1;
      const bool up_in = l >= p_lo && l <= p_hi;
      const Score h_up = up_in ? hrow[idx] : kNegInf;
      const Score f_up = up_in ? frow[idx] : kNegInf;

      e = std::max(e - h, hleft - g - h);
      const Score f = std::max(f_up - h, h_up - g - h);
      const std::int64_t j = ej - l;
      Score c = std::max(
          {s + scoring.substitution(ref[ii], query[static_cast<std::size_t>(j)]), e, f});
      if (!mask.live(i, j)) {
        c = kNegInf;
        e = kNegInf;
        frow[idx] = kNegInf;
      } else {
        frow[idx] = f;
      }
      s = h_up;
      hleft = c;
      hrow[idx] = c;
      if (c > best) {
        best = c;
        best_k = k;
        best_l = l;
      }
    }
    stats.traceback_cells += l_lo <= l_hi ? static_cast<std::size_t>(l_hi - l_lo + 1) : 0;
    p_lo = l_lo;
    p_hi = l_hi;
  }

  SALOBA_CHECK_MSG(best == expect, "start discovery found " << best << ", score pass said "
                                                            << expect);
  return StartPoint{ei - best_k, ej - best_l};
}

/// Phase C: Myers–Miller divide-and-conquer over the mask. Shared state of
/// one recursion: sequences, penalties, mask, the four crossing arrays
/// (allocated once, reused down the recursion — a sub-sweep never needs its
/// parent's values), and the op string under construction.
struct MmContext {
  std::span<const seq::BaseCode> ref, query;
  const ScoringScheme* scoring = nullptr;
  const ForwardMask* mask = nullptr;
  Score g = 0, h = 0;
  std::vector<Score> cc, dd, rr, ss;
  std::string ops;
  WavefrontStats* stats = nullptr;
};

/// One half sweep of a split: `rows` rows of the subproblem [i0..i1] x
/// [j0..j1]. Forward orientation (rev = false) walks rows i0.. downward with
/// `tb` discounting a vertical gap down the left boundary column; reverse
/// orientation walks rows i1.. upward with `tb` (the caller's te) on the
/// right boundary column — i.e. the reverse sweep is the forward sweep of
/// the reversed subproblem. CC/DD are indexed by consumed-column count
/// c in [0, C]; on return [flo, fhi] is the final row's computed c-range
/// (index 0, the boundary, is always valid: CC = the boundary-hugging
/// vertical run, DD the same value once at least one row is consumed).
void mm_sweep(MmContext& ctx, std::int64_t i0, std::int64_t i1, std::int64_t j0,
              std::int64_t j1, std::int64_t rows, bool rev, Score tb, std::vector<Score>& CC,
              std::vector<Score>& DD, std::int64_t& flo, std::int64_t& fhi) {
  const Score g = ctx.g, h = ctx.h;
  const std::int64_t C = j1 - j0 + 1;

  CC[0] = 0;
  DD[0] = kNegInf;  // a vertical gap with zero rows consumed does not exist
  Score t = -g;
  for (std::int64_t c = 1; c <= C; ++c) {
    t -= h;
    CC[static_cast<std::size_t>(c)] = t;
    DD[static_cast<std::size_t>(c)] = t - g;
  }
  std::int64_t p_lo = 1, p_hi = C;  // prev row's computed range; init row is fully valid

  t = -tb;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t i = rev ? i1 - r : i0 + r;
    const auto ii = static_cast<std::size_t>(i);
    // Mask row bounds -> this row's c-range (empty when the row was never
    // computed; the boundary column still advances).
    std::int64_t c_lo = 1, c_hi = 0;
    if (ctx.mask->row_jmin[ii] <= ctx.mask->row_jmax[ii]) {
      if (rev) {
        c_lo = std::max<std::int64_t>(1, j1 - ctx.mask->row_jmax[ii] + 1);
        c_hi = std::min(C, j1 - static_cast<std::int64_t>(ctx.mask->row_jmin[ii]) + 1);
      } else {
        c_lo = std::max<std::int64_t>(1, static_cast<std::int64_t>(ctx.mask->row_jmin[ii]) -
                                             j0 + 1);
        c_hi = std::min(C, static_cast<std::int64_t>(ctx.mask->row_jmax[ii]) - j0 + 1);
      }
    }

    const Score prev_boundary = CC[0];
    t -= h;
    CC[0] = t;
    DD[0] = t;  // the boundary run is an open vertical gap

    Score s = c_lo == 1 ? prev_boundary
                        : (c_lo - 1 >= p_lo && c_lo - 1 <= p_hi
                               ? CC[static_cast<std::size_t>(c_lo - 1)]
                               : kNegInf);
    Score hleft = c_lo == 1 ? t : kNegInf;
    Score e = kNegInf;
    for (std::int64_t c = c_lo; c <= c_hi; ++c) {
      const auto idx = static_cast<std::size_t>(c);
      const bool up_in = c >= p_lo && c <= p_hi;
      const Score cc_up = up_in ? CC[idx] : kNegInf;
      const Score dd_up = up_in ? DD[idx] : kNegInf;

      e = std::max(e - h, hleft - g - h);
      Score dd = std::max(dd_up - h, cc_up - g - h);
      const std::int64_t j = rev ? j1 - (c - 1) : j0 + (c - 1);
      Score cnew = std::max(
          {s + ctx.scoring->substitution(ctx.ref[ii],
                                         ctx.query[static_cast<std::size_t>(j)]),
           e, dd});
      if (!ctx.mask->live(i, j)) {
        cnew = kNegInf;
        e = kNegInf;
        dd = kNegInf;
      }
      s = cc_up;
      hleft = cnew;
      CC[idx] = cnew;
      DD[idx] = dd;
    }
    if (ctx.stats != nullptr && c_lo <= c_hi) {
      ctx.stats->traceback_cells += static_cast<std::size_t>(c_hi - c_lo + 1);
    }
    p_lo = c_lo;
    p_hi = c_hi;
  }
  flo = p_lo;
  fhi = p_hi;
}

/// Single-row base case: place ref[i0] as a substitution at the smallest
/// best column (ties: substitution beats the all-gap form; within the
/// all-gap form the deletion attaches to the top boundary unless the bottom
/// is strictly cheaper).
void mm_single_row(MmContext& ctx, std::int64_t i0, std::int64_t j0, std::int64_t j1,
                   Score tb, Score te) {
  const Score g = ctx.g, h = ctx.h;
  const std::int64_t C = j1 - j0 + 1;
  const auto gap = [&](std::int64_t len) -> Score {
    return len > 0 ? g + static_cast<Score>(len) * h : Score{0};
  };

  const Score allgap = -(std::min(tb, te) + h) - gap(C);
  Score best_sub = kNegInf;
  std::int64_t best_j = -1;
  const auto ii = static_cast<std::size_t>(i0);
  if (ctx.mask->row_jmin[ii] <= ctx.mask->row_jmax[ii]) {
    const std::int64_t lo = std::max(j0, static_cast<std::int64_t>(ctx.mask->row_jmin[ii]));
    const std::int64_t hi = std::min(j1, static_cast<std::int64_t>(ctx.mask->row_jmax[ii]));
    for (std::int64_t j = lo; j <= hi; ++j) {
      if (!ctx.mask->live(i0, j)) continue;
      const Score v =
          -gap(j - j0) +
          ctx.scoring->substitution(ctx.ref[ii], ctx.query[static_cast<std::size_t>(j)]) -
          gap(j1 - j);
      if (v > best_sub) {
        best_sub = v;
        best_j = j;
      }
    }
  }

  if (best_j >= 0 && best_sub >= allgap) {
    ctx.ops.append(static_cast<std::size_t>(best_j - j0), 'I');
    ctx.ops.push_back('M');
    ctx.ops.append(static_cast<std::size_t>(j1 - best_j), 'I');
  } else if (tb <= te) {
    ctx.ops.push_back('D');
    ctx.ops.append(static_cast<std::size_t>(C), 'I');
  } else {
    ctx.ops.append(static_cast<std::size_t>(C), 'I');
    ctx.ops.push_back('D');
  }
}

/// The Myers–Miller recursion (header, phase C). tb/te are the extra
/// open-cost of a vertical gap crossing the top/bottom boundary: ctx.g
/// normally, 0 when the parent already opened that gap.
void mm_rec(MmContext& ctx, std::int64_t i0, std::int64_t i1, std::int64_t j0,
            std::int64_t j1, Score tb, Score te) {
  const std::int64_t R = i1 - i0 + 1;
  const std::int64_t C = j1 - j0 + 1;
  if (R <= 0) {
    ctx.ops.append(static_cast<std::size_t>(std::max<std::int64_t>(0, C)), 'I');
    return;
  }
  if (C <= 0) {
    ctx.ops.append(static_cast<std::size_t>(R), 'D');
    return;
  }
  if (R == 1) {
    mm_single_row(ctx, i0, j0, j1, tb, te);
    return;
  }

  const std::int64_t mid = i0 + (i1 - i0) / 2;  // i0 <= mid < i1
  std::int64_t f_lo = 0, f_hi = 0, r_lo = 0, r_hi = 0;
  mm_sweep(ctx, i0, mid, j0, j1, mid - i0 + 1, /*rev=*/false, tb, ctx.cc, ctx.dd, f_lo, f_hi);
  mm_sweep(ctx, mid + 1, i1, j0, j1, i1 - mid, /*rev=*/true, te, ctx.rr, ctx.ss, r_lo, r_hi);

  // Crossing scan: best value, then the smaller j, then type H over type F.
  // A type-F crossing joins a vertical gap spanning the split, so the
  // second open is refunded (+g).
  Score best = kNegInf;
  std::int64_t best_j = j0 - 1;
  bool best_is_f = false;
  const auto fwd_at = [&](const std::vector<Score>& a, std::int64_t c) {
    return c == 0 || (c >= f_lo && c <= f_hi) ? a[static_cast<std::size_t>(c)] : kNegInf;
  };
  const auto rev_at = [&](const std::vector<Score>& a, std::int64_t c) {
    return c == 0 || (c >= r_lo && c <= r_hi) ? a[static_cast<std::size_t>(c)] : kNegInf;
  };
  for (std::int64_t j = j0 - 1; j <= j1; ++j) {
    const std::int64_t cf = j - (j0 - 1);
    const std::int64_t cr = j1 - j;
    const Score type_h = fwd_at(ctx.cc, cf) + rev_at(ctx.rr, cr);
    if (type_h > best) {
      best = type_h;
      best_j = j;
      best_is_f = false;
    }
    const Score type_f = fwd_at(ctx.dd, cf) + rev_at(ctx.ss, cr) + ctx.g;
    if (type_f > best) {
      best = type_f;
      best_j = j;
      best_is_f = true;
    }
  }

  if (!best_is_f) {
    mm_rec(ctx, i0, mid, j0, best_j, tb, ctx.g);
    mm_rec(ctx, mid + 1, i1, best_j + 1, j1, ctx.g, te);
  } else {
    // The split-spanning gap deletes ref[mid] and ref[mid+1] explicitly;
    // both halves see that gap as already open at their boundary.
    mm_rec(ctx, i0, mid - 1, j0, best_j, tb, Score{0});
    ctx.ops.append(2, 'D');
    mm_rec(ctx, mid + 2, i1, best_j + 1, j1, Score{0}, te);
  }
}

}  // namespace

AlignmentResult xdrop_wavefront_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  AlignmentResult best = wavefront_forward(ref, query, scoring, params, nullptr, local);
  if (stats != nullptr) *stats = local;
  return best;
}

TracedAlignment xdrop_wavefront_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  ForwardMask mask;
  const AlignmentResult best = wavefront_forward(ref, query, scoring, params, &mask, local);
  TracedAlignment out;
  out.end = best;
  if (best.score <= 0) {
    if (stats != nullptr) *stats = local;
    return out;
  }

  const std::int64_t ei = best.ref_end;
  const std::int64_t ej = best.query_end;
  const StartPoint start =
      discover_start(ref, query, scoring, mask, ei, ej, best.score, local);

  MmContext ctx;
  ctx.ref = ref;
  ctx.query = query;
  ctx.scoring = &scoring;
  ctx.mask = &mask;
  ctx.g = scoring.alpha() - scoring.beta();
  ctx.h = scoring.beta();
  ctx.stats = &local;
  const std::size_t width = static_cast<std::size_t>(ej - start.sj) + 2;
  ctx.cc.resize(width);
  ctx.dd.resize(width);
  ctx.rr.resize(width);
  ctx.ss.resize(width);
  ctx.ops.reserve(static_cast<std::size_t>(ei - start.si + ej - start.sj) + 2);
  local.peak_bytes = std::max(
      local.peak_bytes, mask.bytes() + cap_bytes(ctx.cc) * 4 + ctx.ops.capacity());

  mm_rec(ctx, start.si, ei, start.sj, ej, ctx.g, ctx.g);

  out.ref_start = static_cast<std::int32_t>(start.si);
  out.query_start = static_cast<std::int32_t>(start.sj);
  out.cigar = compress_cigar(ctx.ops);
  if (stats != nullptr) *stats = local;
  return out;
}

std::size_t xdrop_cells_estimate(std::size_t ref_len, std::size_t query_len, Score xdrop,
                                 const ScoringScheme& scoring) {
  if (ref_len == 0 || query_len == 0) return 0;
  const std::size_t diagonals = ref_len + query_len - 1;
  std::size_t width = std::min(ref_len, query_len);
  if (xdrop > 0) {
    const auto score_bound =
        static_cast<std::size_t>(2 * (xdrop / scoring.beta()) + 1);
    width = std::min(width, score_bound);
  }
  return std::min(diagonals * width, ref_len * query_len);
}

}  // namespace saloba::align
