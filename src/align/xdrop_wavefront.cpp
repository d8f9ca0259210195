#include "align/xdrop_wavefront.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "align/simd_engine.hpp"
#include "align/simd_vec.hpp"
#include "align/traceback_engine.hpp"
#include "align/xdrop_kernel.hpp"
#include "util/check.hpp"

namespace saloba::align {

namespace detail {

XdropKernels xdrop_kernels_generic() {
  return {xdrop_kernel<simd::OpsI16Generic>(), xdrop_kernel<simd::OpsI32Generic>()};
}

}  // namespace detail

namespace {

using detail::kXdropLanes;

/// The never-computed E/F value. int16 lanes saturate, so INT16_MIN minus
/// beta stays INT16_MIN; int32 lanes wrap, so their sentinel keeps headroom
/// below every live value (>= -(alpha + beta)) instead.
template <typename T>
constexpr T kNegInf = std::is_same_v<T, std::int16_t> ? std::numeric_limits<T>::min()
                                                      : std::numeric_limits<T>::min() / 4;

/// True when every value a computed cell can take fits int16 lanes: H lies
/// in [0, match·min(n, m)], E and F in [-(alpha + beta), H's bound], and the
/// diagonal term in [-mismatch, H's bound] (header, "Lane width").
bool fits_int16(std::size_t n, std::size_t m, const ScoringScheme& s) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int16_t>::max();
  const auto shorter = static_cast<std::int64_t>(std::min(n, m));
  const std::int64_t gaps = std::int64_t{s.gap_open} + 2 * std::int64_t{s.gap_extend};
  return shorter < kMax && s.match * (shorter + 1) < kMax && gaps < kMax && s.mismatch < kMax;
}

/// Forward cells swept between two checkpoints, per base of N + M: every
/// replayed block then holds at most 8·(N + M) flag bytes (plus one
/// diagonal), whatever the window width.
constexpr std::size_t kCheckpointCellsPerBase = 8;

template <class T>
std::size_t cap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Diagonal buffers hold cell i at slot i + 1 (xdrop_kernel.hpp).
std::size_t slot(std::int64_t i) { return static_cast<std::size_t>(i + 1); }

/// Gives cells lo - 1 and hi + 1 of a diagonal buffer whose computed window
/// is [lo, hi] the never-computed value `v` (H = 0, E/F = -inf).
template <typename T>
void seal(std::vector<T>& buf, std::int64_t lo, std::int64_t hi, T v) {
  buf[slot(lo - 1)] = v;
  buf[slot(hi + 1)] = v;
}

/// A copy of `bases` (reversed when asked) padded with kXdropLanes Ns, so
/// the kernel's vector loads past the last base stay inside it.
std::vector<seq::BaseCode> padded_copy(std::span<const seq::BaseCode> bases, bool reversed) {
  std::vector<seq::BaseCode> out(bases.size() + kXdropLanes, seq::kBaseN);
  if (reversed) {
    std::reverse_copy(bases.begin(), bases.end(), out.begin());
  } else {
    std::copy(bases.begin(), bases.end(), out.begin());
  }
  return out;
}

/// The kernel this host runs over lanes of type T, decided once per engine
/// call the way simd::align_batch decides it.
template <typename T>
detail::XdropKernel<T> pick_kernel() {
  detail::XdropKernels kernels = detail::xdrop_kernels_generic();
#if defined(SALOBA_SIMD_AVX2)
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    kernels = detail::xdrop_kernels_avx2();
  }
#endif
  if constexpr (std::is_same_v<T, std::int16_t>) {
    return kernels.i16;
  } else {
    return kernels.i32;
  }
}

/// The rolling anti-diagonal state of the masked DP, in lanes of type T:
/// H on diagonals d-1 and d-2, E/F on d-1, the buffers diagonal d is written
/// into, and the computed windows of d-1 and d-2 ([lo, hi] in reference
/// coordinates i, empty when lo > hi). Buffers hold cell i at slot i + 1:
/// for cell (i, j) on diagonal d, left (i, j-1) and up (i-1, j) live on d-1
/// at i and i-1, diag (i-1, j-1) on d-2 at i-1. Only the windows and their
/// sealed neighbours are ever read by a live lane (xdrop_kernel.hpp); every
/// other slot is stale.
template <typename T>
struct Wavefront {
  std::int64_t n, m;
  std::vector<seq::BaseCode> ref, query_rev;  // padded copies
  ScoringScheme scoring;
  detail::XdropKernel<T> kernel;
  std::vector<T> h_d2, h_d1, h_cur, e_d1, e_cur, f_d1, f_cur;
  std::int64_t p1_lo = 0, p1_hi = -1, p2_lo = 0, p2_hi = -1;

  Wavefront(std::span<const seq::BaseCode> r, std::span<const seq::BaseCode> q,
            const ScoringScheme& s)
      : n(static_cast<std::int64_t>(r.size())),
        m(static_cast<std::int64_t>(q.size())),
        ref(padded_copy(r, false)),
        query_rev(padded_copy(q, true)),
        scoring(s),
        kernel(pick_kernel<T>()),
        h_d2(r.size() + 1 + kXdropLanes, 0),
        h_d1(h_d2),
        h_cur(h_d2),
        e_d1(h_d2.size(), kNegInf<T>),
        e_cur(e_d1),
        f_d1(e_d1),
        f_cur(e_d1) {}

  std::size_t bytes() const {
    return cap_bytes(h_d2) * 3 + cap_bytes(e_d1) * 4 + cap_bytes(ref) + cap_bytes(query_rev);
  }

  detail::XdropSweep<T> view(std::int64_t d, std::int64_t lo, std::int64_t hi) {
    return {.h_d2 = h_d2.data(), .h_d1 = h_d1.data(), .e_d1 = e_d1.data(),
            .f_d1 = f_d1.data(), .h = h_cur.data(), .e = e_cur.data(), .f = f_cur.data(),
            .ref = ref.data(), .query_rev = query_rev.data(), .m = m,
            .match = scoring.match, .mismatch = scoring.mismatch, .alpha = scoring.alpha(),
            .beta = scoring.beta(), .d = d, .lo = lo, .hi = hi};
  }

  /// Computes cells (i, d - i), lo <= i <= hi, of diagonal d and offers its
  /// best cell to `best` under take_better — the forward sweep.
  void sweep_scores(std::int64_t d, std::int64_t lo, std::int64_t hi, AlignmentResult& best) {
    const detail::XdropTop top = kernel.scores(view(d, lo, hi), best.score);
    if (top.i >= 0) {
      take_better(best, AlignmentResult{top.score, static_cast<std::int32_t>(top.i),
                                        static_cast<std::int32_t>(d - top.i)});
    }
    seal_current(lo, hi);
  }

  /// The same cells through the same body, storing cell i's TraceFlag byte
  /// at flags[i - lo] — the block replay.
  void sweep_flags(std::int64_t d, std::int64_t lo, std::int64_t hi, std::uint8_t* flags) {
    kernel.flags(view(d, lo, hi), flags);
    seal_current(lo, hi);
  }

  void seal_current(std::int64_t lo, std::int64_t hi) {
    seal(h_cur, lo, hi, T{0});
    seal(e_cur, lo, hi, kNegInf<T>);
    seal(f_cur, lo, hi, kNegInf<T>);
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
template <typename T>
struct Checkpoint {
  std::int64_t d0 = 0;
  std::vector<T> state;
};

/// What a traced forward sweep records for the backward walk. The computed
/// window of every swept diagonal turns the history-dependent X-drop
/// pruning into a positional mask, so any block of diagonals can be
/// re-derived exactly from its checkpoint.
template <typename T>
struct TraceRecord {
  /// Computed window of diagonal d: cells (i, d-i) with clo[d] <= i <=
  /// chi[d] were evaluated. size() = diagonals swept.
  std::vector<std::int32_t> clo, chi;
  std::vector<Checkpoint<T>> checkpoints;

  std::pair<std::int64_t, std::int64_t> window(std::int64_t d) const {
    if (d < 0) return {0, -1};
    return {clo[static_cast<std::size_t>(d)], chi[static_cast<std::size_t>(d)]};
  }

  /// Saves the state entering diagonal d0 (the forward sweep's `w`).
  void checkpoint(std::int64_t d0, const Wavefront<T>& w) {
    Checkpoint<T>& cp = checkpoints.emplace_back();
    cp.d0 = d0;
    const std::int64_t width1 = std::max<std::int64_t>(0, w.p1_hi - w.p1_lo + 1);
    const std::int64_t width2 = std::max<std::int64_t>(0, w.p2_hi - w.p2_lo + 1);
    cp.state.reserve(static_cast<std::size_t>(3 * width1 + width2));
    for (const std::vector<T>* src : {&w.h_d1, &w.e_d1, &w.f_d1}) {
      const auto first = src->begin() + static_cast<std::ptrdiff_t>(slot(w.p1_lo));
      cp.state.insert(cp.state.end(), first, first + width1);
    }
    const auto first = w.h_d2.begin() + static_cast<std::ptrdiff_t>(slot(w.p2_lo));
    cp.state.insert(cp.state.end(), first, first + width2);
  }

  /// Loads checkpoint `b` into `w`: the windows of d0-1 and d0-2, the
  /// values over them, and their sealed neighbours.
  void restore(std::size_t b, Wavefront<T>& w) const {
    const Checkpoint<T>& cp = checkpoints[b];
    std::tie(w.p1_lo, w.p1_hi) = window(cp.d0 - 1);
    std::tie(w.p2_lo, w.p2_hi) = window(cp.d0 - 2);
    const std::int64_t width1 = std::max<std::int64_t>(0, w.p1_hi - w.p1_lo + 1);
    auto src = cp.state.begin();
    for (std::vector<T>* dst : {&w.h_d1, &w.e_d1, &w.f_d1}) {
      std::copy(src, src + width1, dst->begin() + static_cast<std::ptrdiff_t>(slot(w.p1_lo)));
      src += width1;
    }
    std::copy(src, cp.state.end(), w.h_d2.begin() + static_cast<std::ptrdiff_t>(slot(w.p2_lo)));
    seal(w.h_d1, w.p1_lo, w.p1_hi, T{0});
    seal(w.e_d1, w.p1_lo, w.p1_hi, kNegInf<T>);
    seal(w.f_d1, w.p1_lo, w.p1_hi, kNegInf<T>);
    seal(w.h_d2, w.p2_lo, w.p2_hi, T{0});
  }

  std::size_t bytes() const {
    std::size_t b = cap_bytes(clo) + cap_bytes(chi) + cap_bytes(checkpoints);
    for (const Checkpoint<T>& cp : checkpoints) b += cap_bytes(cp.state);
    return b;
  }
};

/// Forward masked wavefront: anti-diagonal sweep with per-diagonal X-drop
/// live windows (header, "Forward pass"). With a non-null `record` it also
/// records every computed window and a checkpoint whenever
/// kCheckpointCellsPerBase·(N + M) cells have been swept since the last.
template <typename T>
AlignmentResult wavefront_forward(Wavefront<T>& w, const XDropParams& params,
                                  TraceRecord<T>* record, WavefrontStats& stats) {
  const std::int64_t n = w.n;
  const std::int64_t m = w.m;
  stats.lane_bits = 8 * sizeof(T);
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
    w.sweep_scores(d, lo, hi, best);

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
      while (live_lo <= hi && w.h_cur[slot(live_lo)] < floor) ++live_lo;
      while (live_hi >= live_lo && w.h_cur[slot(live_hi)] < floor) --live_hi;
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
template <typename T>
struct FlagBlock {
  explicit FlagBlock(const TraceRecord<T>& r) : record(r) {}

  const TraceRecord<T>& record;
  std::int64_t d0 = 0;
  std::vector<std::size_t> offset;
  std::vector<std::uint8_t> flags;

  std::size_t bytes() const { return cap_bytes(offset) + cap_bytes(flags); }

  /// Re-derives diagonals [d0 of checkpoint b, dw] into this block. The
  /// flag array is sized exactly, plus the kernel's tail slack, so a block
  /// never holds more than the cells it replays and one vector.
  void replay(std::size_t b, std::int64_t dw, Wavefront<T>& w, WavefrontStats& stats) {
    d0 = record.checkpoints[b].d0;
    std::size_t cells = 0;
    offset.clear();
    for (std::int64_t d = d0; d <= dw; ++d) {
      const auto [lo, hi] = record.window(d);
      offset.push_back(cells);
      cells += static_cast<std::size_t>(hi - lo + 1);
    }
    flags.assign(cells + kXdropLanes - 1, 0);

    record.restore(b, w);
    for (std::int64_t d = d0; d <= dw; ++d) {
      const auto [lo, hi] = record.window(d);
      w.sweep_flags(d, lo, hi, flags.data() + offset[static_cast<std::size_t>(d - d0)]);
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

/// xdrop_wavefront_score over lanes of type T.
template <typename T>
AlignmentResult score_pair(std::span<const seq::BaseCode> ref,
                           std::span<const seq::BaseCode> query, const ScoringScheme& scoring,
                           const XDropParams& params, WavefrontStats& stats) {
  Wavefront<T> w(ref, query, scoring);
  return wavefront_forward<T>(w, params, nullptr, stats);
}

/// xdrop_wavefront_align over lanes of type T.
template <typename T>
TracedAlignment align_pair(std::span<const seq::BaseCode> ref,
                           std::span<const seq::BaseCode> query, const ScoringScheme& scoring,
                           const XDropParams& params, WavefrontStats& stats) {
  Wavefront<T> w(ref, query, scoring);
  TraceRecord<T> record;
  TraceWalk walk(wavefront_forward(w, params, &record, stats));

  // Walk back one block at a time: replay the block holding the walk's
  // diagonal up to that diagonal, then walk until the path leaves it.
  // Blocks are visited in decreasing order, each at most once.
  FlagBlock<T> block(record);
  std::size_t b = record.checkpoints.size();
  while (!walk.done()) {
    const auto dw = static_cast<std::int64_t>(walk.row() + walk.col()) - 2;
    do {
      --b;
    } while (record.checkpoints[b].d0 > dw);
    block.replay(b, dw, w, stats);
    const auto first = static_cast<std::size_t>(block.d0) + 2;
    walk.advance([first](std::size_t i, std::size_t j) { return i + j >= first; },
                 [&](std::size_t i, std::size_t j) { return block.flag_at(i, j); });
    stats.peak_bytes = std::max(stats.peak_bytes,
                                w.bytes() + record.bytes() + block.bytes() + walk.steps());
  }
  return walk.result();
}

}  // namespace

AlignmentResult xdrop_wavefront_score(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  const AlignmentResult best =
      fits_int16(ref.size(), query.size(), scoring)
          ? score_pair<std::int16_t>(ref, query, scoring, params, local)
          : score_pair<std::int32_t>(ref, query, scoring, params, local);
  if (stats != nullptr) *stats = local;
  return best;
}

TracedAlignment xdrop_wavefront_align(std::span<const seq::BaseCode> ref,
                                      std::span<const seq::BaseCode> query,
                                      const ScoringScheme& scoring, const XDropParams& params,
                                      WavefrontStats* stats) {
  SALOBA_CHECK(scoring.valid());
  WavefrontStats local;
  TracedAlignment traced =
      fits_int16(ref.size(), query.size(), scoring)
          ? align_pair<std::int16_t>(ref, query, scoring, params, local)
          : align_pair<std::int32_t>(ref, query, scoring, params, local);
  if (stats != nullptr) *stats = local;
  return traced;
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
