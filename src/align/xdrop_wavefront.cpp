#include "align/xdrop_wavefront.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "align/traceback_engine.hpp"
#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

/// Forward cells swept between two checkpoints, per base of N + M: every
/// replayed block then holds at most 8·(N + M) flag bytes (plus one
/// diagonal), whatever the window width.
constexpr std::size_t kCheckpointCellsPerBase = 8;

template <class T>
std::size_t cap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// The rolling anti-diagonal state of the masked DP: H on diagonals d-1 and
/// d-2, E/F on d-1, the buffers diagonal d is written into, and the
/// computed windows of d-1 and d-2 ([lo, hi] in reference coordinates i,
/// empty when lo > hi). Buffers are indexed by i: for cell (i, j) on
/// diagonal d, left (i, j-1) and up (i-1, j) live on d-1 at indices i and
/// i-1, diag (i-1, j-1) on d-2 at i-1. Entries outside a window are stale
/// and never read: the window guards substitute the never-computed values
/// H = 0, E/F = -inf.
struct Wavefront {
  std::span<const seq::BaseCode> ref, query;
  const ScoringScheme& scoring;
  std::vector<Score> h_d2, h_d1, h_cur, e_d1, e_cur, f_d1, f_cur;
  std::int64_t p1_lo = 0, p1_hi = -1, p2_lo = 0, p2_hi = -1;

  Wavefront(std::span<const seq::BaseCode> r, std::span<const seq::BaseCode> q,
            const ScoringScheme& s)
      : ref(r),
        query(q),
        scoring(s),
        h_d2(r.size(), 0),
        h_d1(h_d2),
        h_cur(h_d2),
        e_d1(r.size(), kNegInf),
        e_cur(e_d1),
        f_d1(e_d1),
        f_cur(e_d1) {}

  std::size_t bytes() const { return cap_bytes(h_d2) * 3 + cap_bytes(e_d1) * 4; }

  /// Computes cells (i, d - i), lo <= i <= hi, of diagonal d: the one cell
  /// body of the forward sweep and of the block replay, so the replay
  /// cannot drift from the score. `visit` receives every cell in increasing
  /// i: as AlignmentResult{H, i, j} without kFlags (the forward sweep's
  /// endpoint candidates), as its TraceFlag byte with kFlags.
  template <bool kFlags, typename Visit>
  void sweep(std::int64_t d, std::int64_t lo, std::int64_t hi, const Visit& visit) {
    // A local copy: the scheme's fields are Scores too, so through the
    // reference every buffer store would force them to be reloaded.
    const ScoringScheme sc = scoring;
    const Score alpha = sc.alpha();
    const Score beta = sc.beta();
    for (std::int64_t i = lo; i <= hi; ++i) {
      const std::int64_t j = d - i;
      const auto ui = static_cast<std::size_t>(i);
      const bool left_in = i >= p1_lo && i <= p1_hi;
      const bool up_in = i - 1 >= p1_lo && i - 1 <= p1_hi;
      const bool diag_in = i - 1 >= p2_lo && i - 1 <= p2_hi;
      // Out-of-table and never-computed neighbours alike: H reads 0 (the
      // local floor — equivalent to restarting the alignment here), E/F
      // read -inf (a gap cannot pass through an unevaluated cell).
      const Score h_left = (j == 0 || !left_in) ? 0 : h_d1[ui];
      const Score e_left = (j == 0 || !left_in) ? kNegInf : e_d1[ui];
      const Score h_up = (i == 0 || !up_in) ? 0 : h_d1[ui - 1];
      const Score f_up = (i == 0 || !up_in) ? kNegInf : f_d1[ui - 1];
      const Score h_diag = (i == 0 || j == 0 || !diag_in) ? 0 : h_d2[ui - 1];

      const Score e_open = h_left - alpha;
      const Score f_open = h_up - alpha;
      const Score e = std::max(e_open, e_left - beta);
      const Score f = std::max(f_open, f_up - beta);
      const Score diag =
          h_diag + sc.substitution(ref[ui], query[static_cast<std::size_t>(j)]);
      const Score h = std::max({Score{0}, diag, e, f});

      h_cur[ui] = h;
      e_cur[ui] = e;
      f_cur[ui] = f;
      if constexpr (kFlags) {
        visit(trace_flags(h, diag, e, f, e_open, f_open));
      } else {
        visit(AlignmentResult{h, static_cast<std::int32_t>(i), static_cast<std::int32_t>(j)});
      }
    }
  }

  /// Makes the diagonal just swept (computed window [lo, hi]) diagonal d-1.
  void shift(std::int64_t lo, std::int64_t hi) {
    p2_lo = p1_lo;
    p2_hi = p1_hi;
    p1_lo = lo;
    p1_hi = hi;
    std::swap(h_d2, h_d1);
    std::swap(h_d1, h_cur);
    std::swap(e_d1, e_cur);
    std::swap(f_d1, f_cur);
  }
};

/// The state entering diagonal d0, the first diagonal of one replay block:
/// H, E and F over diagonal d0-1's computed window, then H over d0-2's.
/// Diagonal d reads nothing older, so this restores the sweep exactly.
struct Checkpoint {
  std::int64_t d0 = 0;
  std::vector<Score> state;
};

/// What a traced forward sweep records for the backward walk. The computed
/// window of every swept diagonal turns the history-dependent X-drop
/// pruning into a positional mask, so any block of diagonals can be
/// re-derived exactly from its checkpoint.
struct TraceRecord {
  /// Computed window of diagonal d: cells (i, d-i) with clo[d] <= i <=
  /// chi[d] were evaluated. size() = diagonals swept.
  std::vector<std::int32_t> clo, chi;
  std::vector<Checkpoint> checkpoints;

  std::pair<std::int64_t, std::int64_t> window(std::int64_t d) const {
    if (d < 0) return {0, -1};
    return {clo[static_cast<std::size_t>(d)], chi[static_cast<std::size_t>(d)]};
  }

  /// Saves the state entering diagonal d0 (the forward sweep's `w`).
  void checkpoint(std::int64_t d0, const Wavefront& w) {
    Checkpoint& cp = checkpoints.emplace_back();
    cp.d0 = d0;
    const std::int64_t width1 = std::max<std::int64_t>(0, w.p1_hi - w.p1_lo + 1);
    const std::int64_t width2 = std::max<std::int64_t>(0, w.p2_hi - w.p2_lo + 1);
    cp.state.reserve(static_cast<std::size_t>(3 * width1 + width2));
    for (const std::vector<Score>* src : {&w.h_d1, &w.e_d1, &w.f_d1}) {
      cp.state.insert(cp.state.end(), src->begin() + w.p1_lo, src->begin() + w.p1_lo + width1);
    }
    cp.state.insert(cp.state.end(), w.h_d2.begin() + w.p2_lo,
                    w.h_d2.begin() + w.p2_lo + width2);
  }

  /// Loads checkpoint `b` into `w`: the windows of d0-1 and d0-2 and the
  /// values over them.
  void restore(std::size_t b, Wavefront& w) const {
    const Checkpoint& cp = checkpoints[b];
    std::tie(w.p1_lo, w.p1_hi) = window(cp.d0 - 1);
    std::tie(w.p2_lo, w.p2_hi) = window(cp.d0 - 2);
    const std::int64_t width1 = std::max<std::int64_t>(0, w.p1_hi - w.p1_lo + 1);
    auto src = cp.state.begin();
    for (std::vector<Score>* dst : {&w.h_d1, &w.e_d1, &w.f_d1}) {
      std::copy(src, src + width1, dst->begin() + w.p1_lo);
      src += width1;
    }
    std::copy(src, cp.state.end(), w.h_d2.begin() + w.p2_lo);
  }

  std::size_t bytes() const {
    std::size_t b = cap_bytes(clo) + cap_bytes(chi) + cap_bytes(checkpoints);
    for (const Checkpoint& cp : checkpoints) b += cap_bytes(cp.state);
    return b;
  }
};

/// Forward masked wavefront: anti-diagonal sweep with per-diagonal X-drop
/// live windows (header, "Forward pass"). With a non-null `record` it also
/// records every computed window and a checkpoint whenever
/// kCheckpointCellsPerBase·(N + M) cells have been swept since the last.
AlignmentResult wavefront_forward(Wavefront& w, const XDropParams& params,
                                  TraceRecord* record, WavefrontStats& stats) {
  const std::int64_t n = static_cast<std::int64_t>(w.ref.size());
  const std::int64_t m = static_cast<std::int64_t>(w.query.size());
  AlignmentResult best;
  if (n == 0 || m == 0) return best;

  const std::int64_t diag_count = n + m - 1;
  const std::size_t spacing = kCheckpointCellsPerBase * static_cast<std::size_t>(n + m);
  std::size_t since_checkpoint = spacing;  // the first block starts at d = 0
  if (record != nullptr) {
    record->clo.reserve(static_cast<std::size_t>(diag_count));
    record->chi.reserve(static_cast<std::size_t>(diag_count));
  }

  // The live window proposed for the current diagonal.
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

    if (record != nullptr && since_checkpoint >= spacing) {
      record->checkpoint(d, w);
      since_checkpoint = 0;
    }
    w.sweep<false>(d, lo, hi, [&](const AlignmentResult& cell) { take_better(best, cell); });

    const auto width = static_cast<std::size_t>(hi - lo + 1);
    stats.cells += width;
    since_checkpoint += width;
    stats.max_wavefront = std::max(stats.max_wavefront, width);
    stats.diagonals = static_cast<std::size_t>(d + 1);
    if (record != nullptr) {
      record->clo.push_back(static_cast<std::int32_t>(lo));
      record->chi.push_back(static_cast<std::int32_t>(hi));
    }

    // Live set: computed cells within X of the running best (all of them
    // when pruning is off). The next window covers its left/up successors.
    std::int64_t live_lo = lo, live_hi = hi;
    if (params.xdrop > 0) {
      const Score floor = best.score - params.xdrop;
      while (live_lo <= hi && w.h_cur[static_cast<std::size_t>(live_lo)] < floor) ++live_lo;
      while (live_hi >= live_lo && w.h_cur[static_cast<std::size_t>(live_hi)] < floor) {
        --live_hi;
      }
      if (live_lo > live_hi) {
        stats.xdropped = true;
        break;
      }
    }
    win_lo = live_lo;
    win_hi = live_hi + 1;
    w.shift(lo, hi);
  }

  stats.peak_bytes = std::max(
      stats.peak_bytes, w.bytes() + (record != nullptr ? record->bytes() : 0));
  if (best.score == 0) return AlignmentResult{};
  return best;
}

/// One replayed block: the flag byte of every computed cell of diagonals
/// [d0, d0 + offset.size()), diagonal d's window starting at
/// flags[offset[d - d0]].
struct FlagBlock {
  explicit FlagBlock(const TraceRecord& r) : record(r) {}

  const TraceRecord& record;
  std::int64_t d0 = 0;
  std::vector<std::size_t> offset;
  std::vector<std::uint8_t> flags;

  std::size_t bytes() const { return cap_bytes(offset) + cap_bytes(flags); }

  /// Re-derives diagonals [d0 of checkpoint b, dw] into this block. The
  /// flag array is sized exactly, so a block never holds more than the
  /// cells it replays.
  void replay(std::size_t b, std::int64_t dw, Wavefront& w, WavefrontStats& stats) {
    d0 = record.checkpoints[b].d0;
    std::size_t cells = 0;
    offset.clear();
    for (std::int64_t d = d0; d <= dw; ++d) {
      const auto [lo, hi] = record.window(d);
      offset.push_back(cells);
      cells += static_cast<std::size_t>(hi - lo + 1);
    }
    flags.clear();
    flags.reserve(cells);

    record.restore(b, w);
    for (std::int64_t d = d0; d <= dw; ++d) {
      const auto [lo, hi] = record.window(d);
      w.sweep<true>(d, lo, hi, [&](std::uint8_t f) { flags.push_back(f); });
      w.shift(lo, hi);
    }
    stats.traceback_cells += cells;
  }

  /// The flag byte of 1-based cell (i, j); cells outside the computed
  /// window read the masked-DP neutral values, i.e. kTraceZero alone.
  std::uint8_t flag_at(std::size_t i, std::size_t j) const {
    const auto r = static_cast<std::int64_t>(i) - 1;
    const auto d = static_cast<std::int64_t>(i + j) - 2;
    const auto [lo, hi] = record.window(d);
    if (r < lo || r > hi) return kTraceZero;
    return flags[offset[static_cast<std::size_t>(d - d0)] + static_cast<std::size_t>(r - lo)];
  }
};

}  // namespace

AlignmentResult xdrop_wavefront_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  Wavefront w(ref, query, scoring);
  AlignmentResult best = wavefront_forward(w, params, nullptr, local);
  if (stats != nullptr) *stats = local;
  return best;
}

TracedAlignment xdrop_wavefront_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  Wavefront w(ref, query, scoring);
  TraceRecord record;
  TraceWalk walk(wavefront_forward(w, params, &record, local));

  // Walk back one block at a time: replay the block holding the walk's
  // diagonal up to that diagonal, then walk until the path leaves it.
  // Blocks are visited in decreasing order, each at most once.
  FlagBlock block(record);
  std::size_t b = record.checkpoints.size();
  while (!walk.done()) {
    const auto dw = static_cast<std::int64_t>(walk.row() + walk.col()) - 2;
    do {
      --b;
    } while (record.checkpoints[b].d0 > dw);
    block.replay(b, dw, w, local);
    const auto first = static_cast<std::size_t>(block.d0) + 2;
    walk.advance([first](std::size_t i, std::size_t j) { return i + j >= first; },
                 [&](std::size_t i, std::size_t j) { return block.flag_at(i, j); });
    local.peak_bytes = std::max(local.peak_bytes,
                                w.bytes() + record.bytes() + block.bytes() + walk.steps());
  }
  if (stats != nullptr) *stats = local;
  return walk.result();
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
