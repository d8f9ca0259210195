// Internal header of the inter-sequence SIMD extension engine: the banded
// Smith–Waterman cohort kernel, written once against the Ops
// vocabulary of simd_vec.hpp and instantiated per ISA
// (simd_engine.cpp: generic fallback; simd_engine_avx2.cpp: AVX2).
//
// Layout (AnySeq/GPU-style inter-task parallelism on the host): one vector
// lane = one independent (query, reference) pair. A cohort of Ops::kLanes
// pairs — pre-sorted by length so the padded rectangle stays tight — walks
// reference rows in lockstep; every lane applies its own band window
// |i - j| <= band via per-cell masks, so banded pairs prune bit-identically
// to align::smith_waterman_banded:
//
//   * in-band H values are exact (cells outside a lane's window are forced
//     to H = 0 after computation, which is precisely the out-of-band read
//     semantics of the scalar oracle; E/F clamp to 0 in the saturating
//     domain, equivalent to the oracle's -inf because the zero floor of H
//     dominates any non-positive gap chain),
//   * the global best is tracked with the canonical row-major tie-break
//     (smallest ref_end, then smallest query_end — align::improves), and
//   * a lane whose score saturates (kSatMax) is evicted for the wider pass
//     — saturation can only surface as a stored in-band kSatMax, so the
//     per-row detection is exact, never silent.
//
// Traced mode (align::simd::trace_batch) is the scalar traceback engine's
// checkpoint scheme, vectorized across lanes: the forward sweep saves the
// H/F column vectors every K rows, K-row blocks are then replayed bottom-up
// storing one flag byte (align::TraceFlag) per lane per cell — in a
// lane-width slot, so the 16-bit rescue keeps it in each lane's low byte —
// and every lane walks its own path (align::TraceWalk) through the block in
// memory. A walk moves only up and left, so a lane replays only the rows
// and columns up to its walk's cell: its row_end and col_end narrow its
// windows, and the cohort's columns stop at the last lane's walk column.
// (Row-major replays cannot also drop the columns left of the walk's cone,
// as the X-drop wavefront's anti-diagonal replays do.) The forward sweep
// and the replays run the score pass's row body; only the flag stores are
// switched on at compile time. So the forward sweep settles each lane's end
// and cell count exactly as the score pass does, and a traced pair needs no
// score pass of its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "align/traceback_engine.hpp"
#include "seq/sequence.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace saloba::align::simd::detail {

/// Pairs longer than this on either side skip the narrow passes entirely:
/// endpoint bookkeeping lives in 16-bit index lanes, and a guard well below
/// 65535 keeps every index comparison unsigned-exact.
inline constexpr std::size_t kMaxSimdLen = 32000;

/// Bytes of one DP vector: both lane widths fill a 256-bit register (32 x
/// 8-bit or 16 x 16-bit lanes), generic and AVX2 alike.
inline constexpr std::size_t kVecBytes = 32;

/// Cap on one traced cohort's working set (H/F snapshots plus one flag
/// block, trace_cohort_bytes): cohorts are packed under it so the replayed
/// state stays cache-sized, and a pair that alone exceeds it is traced by
/// align::banded_traceback.
inline constexpr std::size_t kMaxTraceCohortBytes = std::size_t{1} << 20;

/// Working set of a traced cohort whose padded rectangle is rows x cols,
/// replayed in `block_rows`-row blocks: one H and one F column-vector
/// snapshot per block plus one block of per-cell flag vectors.
inline std::size_t trace_cohort_bytes(std::size_t rows, std::size_t cols,
                                      std::size_t block_rows) {
  const std::size_t snapshots = (rows + block_rows - 1) / block_rows;
  return (2 * snapshots + std::min(block_rows, rows)) * cols * kVecBytes;
}

/// One widening pass over a set of pairs. `pairs` must arrive pre-sorted
/// into cohort order (the engine sorts by length once); slots of `results`
/// (score mode) or `traced` (traced mode) and of `cells` are written only
/// for pairs the pass settles, and pairs whose scores saturate are flagged
/// in `overflowed` for the next-wider pass.
struct PassRequest {
  const seq::PairBatch* batch = nullptr;
  const ScoringScheme* scoring = nullptr;
  std::span<const std::size_t> pairs;
  std::vector<AlignmentResult>* results = nullptr;
  std::vector<std::size_t>* cells = nullptr;  ///< in-band cells of the (forward) sweep
  std::vector<std::uint8_t>* overflowed = nullptr;
  int threads = 0;

  // --- Traced mode (set `traced` to select it) -----------------------------
  /// Each settled pair's trace, its `end` the forward sweep's best cell.
  std::vector<TracedAlignment>* traced = nullptr;
  std::vector<std::size_t>* replay_cells = nullptr;  ///< in-band cells replayed
  std::size_t checkpoint_rows = 0;                   ///< K (0 = ~sqrt(rows))
};

// ISA entry points (one per lane width). The generic pair is always
// compiled; the AVX2 pair exists only when the build enables it and is only
// called after a runtime CPUID check.
void run_pass_u8_generic(const PassRequest& req);
void run_pass_u16_generic(const PassRequest& req);
#if defined(SALOBA_SIMD_AVX2)
void run_pass_u8_avx2(const PassRequest& req);
void run_pass_u16_avx2(const PassRequest& req);
#endif

template <class Ops>
class CohortKernel {
 public:
  using Vec = typename Ops::Vec;
  using IVec = typename Ops::IVec;
  using Elem = typename Ops::Elem;
  using VecBuffer = std::vector<Vec>;
  static constexpr int kW = Ops::kLanes;
  static constexpr int kKH = Ops::kIdxHalves;
  static constexpr int kIW = kW / kKH;
  static_assert(sizeof(Vec) == kVecBytes, "trace_cohort_bytes prices 256-bit vectors");

  /// Score mode: runs one cohort of up to kW pairs (batch indices in
  /// `lane_pairs`) and settles each lane's best cell and cell count.
  static void run_cohort(const PassRequest& req, std::span<const std::size_t> lane_pairs) {
    Cohort c(req, lane_pairs);
    std::size_t cells[kW] = {};
    const Ends ends = c.forward([](std::int64_t) {}, cells);
    for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
      const std::size_t p = lane_pairs[l];
      if (ends.overflow[l]) {
        (*req.overflowed)[p] = 1;
        continue;
      }
      (*req.results)[p] = ends.best[l];
      (*req.cells)[p] = cells[l];
    }
  }

  /// Traced mode: the forward sweep snapshots H/F every `block_rows` rows
  /// and settles each lane's best cell exactly as run_cohort does; then,
  /// bottom-up, each block some lane's walk still needs is replayed from its
  /// snapshot (rows up to the deepest such walk) with flag stores on, and
  /// every lane walks through it. Each lane replays only the rows and
  /// columns up to its walk's cell, the only ones its walk can reach. A
  /// lane whose best is zero walks nothing.
  static void trace_cohort(const PassRequest& req, std::span<const std::size_t> lane_pairs,
                           std::size_t block_rows) {
    Cohort c(req, lane_pairs);
    const std::size_t cols = static_cast<std::size_t>(c.max_m);
    const auto k = static_cast<std::int64_t>(block_rows);
    const std::size_t blocks = (static_cast<std::size_t>(c.max_n) + block_rows - 1) / block_rows;

    VecBuffer snapshots(blocks * 2 * cols);
    std::size_t forward_cells[kW] = {};
    const Ends ends = c.forward(
        [&](std::int64_t i) {
          if (i % k != 0) return;
          Vec* snap = snapshots.data() + static_cast<std::size_t>(i / k) * 2 * cols;
          std::copy(c.h_col.begin(), c.h_col.end(), snap);
          std::copy(c.f_col.begin(), c.f_col.end(), snap + cols);
        },
        forward_cells);

    TraceWalk walks[kW];
    for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
      if (ends.overflow[l]) {
        (*req.overflowed)[lane_pairs[l]] = 1;
        continue;
      }
      walks[l] = TraceWalk(ends.best[l]);
    }

    std::vector<Elem> flags(std::min(block_rows, static_cast<std::size_t>(c.max_n)) * cols * kW);
    std::size_t replay_cells[kW] = {};
    for (std::size_t b = blocks; b-- > 0;) {
      // Lanes whose walk stands in this block sweep rows [r0, walk row) and
      // columns [0, walk column), the 0-based cells up to and including the
      // walk's; every other lane sits the replay out.
      const std::int64_t r0 = static_cast<std::int64_t>(b) * k;
      std::int64_t deepest = r0;
      for (int l = 0; l < kW; ++l) {
        const bool here = !walks[l].done() && static_cast<std::int64_t>(walks[l].row()) > r0;
        c.row_end[l] = here ? static_cast<std::int64_t>(walks[l].row()) : 0;
        c.col_end[l] = here ? static_cast<std::int64_t>(walks[l].col()) : 0;
        deepest = std::max(deepest, c.row_end[l]);
      }
      if (deepest == r0) continue;

      const Vec* snap = snapshots.data() + b * 2 * cols;
      std::copy(snap, snap + cols, c.h_col.begin());
      std::copy(snap + cols, snap + 2 * cols, c.f_col.begin());
      for (std::int64_t i = r0; i < deepest; ++i) {
        if (!c.windows(i, replay_cells)) break;
        c.template sweep_row<true>(i, nullptr,
                                   flags.data() + static_cast<std::size_t>(i - r0) * cols * kW);
      }

      const auto first_row = static_cast<std::size_t>(r0) + 1;
      const auto in_block = [first_row](std::size_t i, std::size_t) { return i >= first_row; };
      for (int l = 0; l < kW; ++l) {
        if (c.row_end[l] == 0) continue;
        walks[l].advance(in_block, [&](std::size_t i, std::size_t j) {
          const auto i0 = static_cast<std::int64_t>(i) - 1;
          const auto j0 = static_cast<std::int64_t>(j) - 1;
          // Out-of-band cells read the masked-DP neutral values; in-band
          // cells of rows [r0, row_end) and columns [0, col_end) were all
          // written by this replay.
          if (j0 < c.window_lo(l, i0) || j0 > c.window_hi(l, i0)) return std::uint8_t{kTraceZero};
          SALOBA_DCHECK(i0 < c.row_end[l] && j0 < c.col_end[l]);
          return static_cast<std::uint8_t>(
              flags[(static_cast<std::size_t>(i0 - r0) * cols + static_cast<std::size_t>(j0)) * kW +
                    static_cast<std::size_t>(l)]);
        });
      }
    }

    for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
      if (ends.overflow[l]) continue;
      const std::size_t p = lane_pairs[l];
      (*req.traced)[p] = walks[l].result();
      (*req.cells)[p] = forward_cells[l];
      (*req.replay_cells)[p] = replay_cells[l];
    }
  }

 private:
  /// Per-lane outcome of a forward sweep.
  struct Ends {
    AlignmentResult best[kW];
    bool overflow[kW] = {};
  };

  /// One cohort's lane bookkeeping and DP state: per-lane band windows,
  /// SoA-transposed bases and the H/F column vectors every row reads and
  /// rewrites. The score pass, the traced forward sweep and the block
  /// replays all run its one row body (sweep_row).
  struct Cohort {
    std::int64_t n[kW] = {}, m[kW] = {}, band[kW] = {};
    /// Lane l sweeps rows [0, row_end[l]) and columns [0, col_end[l]) in the
    /// forward sweep (its lengths; rows cut short by saturation or the band
    /// leaving the query); a block replay narrows both to the cells up to
    /// the lane's walk.
    std::int64_t row_end[kW] = {}, col_end[kW] = {};
    std::int64_t max_n = 0, max_m = 0;
    std::vector<std::uint8_t> refs_t, queries_t;
    /// H[j] / F[j] column state vectors. Zero-initialisation doubles as the
    /// out-of-band value (H = 0; F = 0 is the saturating image of -inf).
    VecBuffer h_col, f_col;
    Vec alpha_v{}, beta_v{}, match_v{}, mism_v{}, n_code{}, sat_v{};
    /// The current row's windows (windows()): empty = {0xFFFF, 0}.
    alignas(32) std::uint16_t lo16[kW], hi16[kW];
    std::int64_t union_lo = 0, union_hi = -1;

    Cohort(const PassRequest& req, std::span<const std::size_t> lane_pairs) {
      const seq::PairBatch& batch = *req.batch;
      const ScoringScheme& scoring = *req.scoring;
      for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
        const std::size_t p = lane_pairs[l];
        n[l] = static_cast<std::int64_t>(batch.refs[p].size());
        m[l] = static_cast<std::int64_t>(batch.queries[p].size());
        // band 0 = full table: a band covering the longer side reproduces
        // the plain algorithm exactly (the oracle's own convention).
        const std::size_t b = batch.band_of(p);
        band[l] = b != 0 ? static_cast<std::int64_t>(std::min(b, 2 * kMaxSimdLen))
                         : std::max(n[l], m[l]);
        row_end[l] = m[l] > 0 ? n[l] : 0;
        col_end[l] = m[l];
        max_n = std::max(max_n, n[l]);
        max_m = std::max(max_m, m[l]);
      }
      if (max_n == 0 || max_m == 0) return;

      // refs_t[i*kW + l] = base i of lane l's reference (pad 0xF0: never
      // equal to a real code or to itself across a real lane, and every
      // padded cell is out-of-window anyway).
      refs_t.assign(static_cast<std::size_t>(max_n) * kW, 0xF0);
      queries_t.assign(static_cast<std::size_t>(max_m) * kW, 0xF0);
      for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
        const std::size_t p = lane_pairs[l];
        for (std::int64_t i = 0; i < n[l]; ++i) {
          refs_t[static_cast<std::size_t>(i) * kW + l] =
              batch.refs[p][static_cast<std::size_t>(i)];
        }
        for (std::int64_t j = 0; j < m[l]; ++j) {
          queries_t[static_cast<std::size_t>(j) * kW + l] =
              batch.queries[p][static_cast<std::size_t>(j)];
        }
      }
      h_col.assign(static_cast<std::size_t>(max_m), Ops::zero());
      f_col.assign(static_cast<std::size_t>(max_m), Ops::zero());

      const auto clamp_elem = [](Score s) {
        return static_cast<Elem>(std::min<Score>(s, Ops::kSatMax));
      };
      alpha_v = Ops::splat(clamp_elem(scoring.alpha()));
      beta_v = Ops::splat(clamp_elem(scoring.beta()));
      match_v = Ops::splat(clamp_elem(scoring.match));
      mism_v = Ops::splat(clamp_elem(scoring.mismatch));
      n_code = Ops::splat(static_cast<Elem>(seq::kBaseN));
      sat_v = Ops::splat(static_cast<Elem>(Ops::kSatMax));
    }

    std::int64_t window_lo(int l, std::int64_t i) const { return i > band[l] ? i - band[l] : 0; }
    std::int64_t window_hi(int l, std::int64_t i) const { return std::min(m[l] - 1, i + band[l]); }

    /// Row i's per-lane windows, cut at col_end, into lo16/hi16 and their
    /// union; false when no lane has one. Adds each windowed lane's swept
    /// cells to cells[l].
    bool windows(std::int64_t i, std::size_t* cells) {
      union_lo = max_m;
      union_hi = -1;
      for (int l = 0; l < kW; ++l) {
        lo16[l] = 0xFFFF;
        hi16[l] = 0;
        if (i >= row_end[l]) continue;
        const std::int64_t lo = window_lo(l, i);
        const std::int64_t hi = std::min(window_hi(l, i), col_end[l] - 1);
        if (lo > hi) {
          // The band moved past the query end (the oracle's empty-window
          // rows) or, in a replay, past the walk's column: no row from here
          // on holds a cell this lane sweeps.
          row_end[l] = i;
          continue;
        }
        lo16[l] = static_cast<std::uint16_t>(lo);
        hi16[l] = static_cast<std::uint16_t>(hi);
        cells[l] += static_cast<std::size_t>(hi - lo + 1);
        union_lo = std::min(union_lo, lo);
        union_hi = std::max(union_hi, hi);
      }
      return union_hi >= 0;
    }

    /// The row body over the windows() just computed. Score sweeps
    /// (kFlags = false) track the row's best cell into `row_best`; replays
    /// (kFlags = true) store every column's flag vector at flags_row[j*kW].
    struct RowBest {
      Vec best;
      IVec arg[kKH];
    };
    template <bool kFlags>
    void sweep_row(std::int64_t i, RowBest* row_best, Elem* flags_row) {
      IVec lo_v[kKH], hi_v[kKH];
      for (int h = 0; h < kKH; ++h) {
        lo_v[h] = Ops::iload(lo16 + h * kIW);
        hi_v[h] = Ops::iload(hi16 + h * kIW);
      }

      // Locals, so the column loop's vector stores (which may alias
      // anything) never force reloads of the cohort's members.
      const Vec alpha = alpha_v, beta = beta_v, match = match_v, mism = mism_v, nc = n_code;
      const std::uint8_t* const qt = queries_t.data();
      Vec* const hc = h_col.data();
      Vec* const fc = f_col.data();
      const Vec ref_v = Ops::load_bases(refs_t.data() + static_cast<std::size_t>(i) * kW);
      const Vec ref_is_n = Ops::cmpeq(ref_v, nc);

      Vec carry = Ops::zero();   // H(i-1, j-1) diagonal feed
      Vec h_left = Ops::zero();  // H(i, j-1)
      Vec e = Ops::zero();       // E(i, j-1), clamped domain
      Vec best = Ops::zero();
      IVec arg[kKH];
      for (int h = 0; h < kKH; ++h) arg[h] = Ops::izero();

      // Start one column early so `carry` picks up H(i-1, lo-1) for lanes
      // whose window begins at union_lo (the oracle's h_diag seed). That
      // cell is out-of-band for every lane, so its own value is masked off.
      const std::int64_t j_start = union_lo > 0 ? union_lo - 1 : 0;
      for (std::int64_t j = j_start; j <= union_hi; ++j) {
        const IVec j_v = Ops::isplat(static_cast<std::uint16_t>(j));
        IVec m0 = Ops::iand(Ops::icmpge(j_v, lo_v[0]), Ops::icmpge(hi_v[0], j_v));
        IVec m1 = kKH == 2 ? Ops::iand(Ops::icmpge(j_v, lo_v[kKH - 1]),
                                       Ops::icmpge(hi_v[kKH - 1], j_v))
                           : m0;
        const Vec in_band = Ops::compress_mask(m0, m1);

        const Vec q_v = Ops::load_bases(qt + static_cast<std::size_t>(j) * kW);
        const Vec is_match = Ops::andnot(Ops::vor(Ops::cmpeq(q_v, nc), ref_is_n),
                                         Ops::cmpeq(ref_v, q_v));

        const Vec e_open = Ops::subs(h_left, alpha);
        e = Ops::maxu(e_open, Ops::subs(e, beta));
        const Vec h_up = hc[j];
        const Vec f_open = Ops::subs(h_up, alpha);
        const Vec f = Ops::maxu(f_open, Ops::subs(fc[j], beta));
        const Vec diag = Ops::blend(is_match, Ops::adds(carry, match), Ops::subs(carry, mism));
        carry = h_up;
        Vec h = Ops::maxu(diag, e);
        h = Ops::maxu(h, f);
        h = Ops::vand(h, in_band);
        hc[j] = h;
        fc[j] = Ops::vand(f, in_band);
        h_left = h;

        if constexpr (kFlags) {
          // align::trace_flags, lane-wise. Lanes hold max(x, 0) of every
          // value, which only conflates values <= 0 — never ones the walk
          // consults (see align::trace_flags).
          Vec fl = Ops::vand(Ops::cmpeq(h, diag), Ops::splat(kTraceDiag));
          fl = Ops::vor(fl, Ops::vand(Ops::cmpeq(h, e), Ops::splat(kTraceFromE)));
          fl = Ops::vor(fl, Ops::vand(Ops::cmpeq(h, f), Ops::splat(kTraceFromF)));
          fl = Ops::vor(fl, Ops::vand(Ops::cmpeq(e, e_open), Ops::splat(kTraceEOpen)));
          fl = Ops::vor(fl, Ops::vand(Ops::cmpeq(f, f_open), Ops::splat(kTraceFOpen)));
          fl = Ops::vor(fl, Ops::vand(Ops::cmpeq(h, Ops::zero()), Ops::splat(kTraceZero)));
          Ops::store(flags_row + static_cast<std::size_t>(j) * kW, fl);
        } else {
          // Endpoint bookkeeping: first j that strictly improves the running
          // row maximum = smallest query_end among the row's best cells.
          const Vec gt = Ops::cmpgt(h, best);
          best = Ops::maxu(best, h);
          for (int half = 0; half < kKH; ++half) {
            arg[half] = Ops::iblend(Ops::expand_mask(gt, half), j_v, arg[half]);
          }
        }
      }
      if constexpr (!kFlags) {
        row_best->best = best;
        for (int h = 0; h < kKH; ++h) row_best->arg[h] = arg[h];
      }
    }

    /// The forward sweep: rows in order until no lane has a window, with
    /// the global best (canonical tie-break) and saturation eviction per
    /// row. `before_row(i)` runs ahead of each swept row.
    template <typename BeforeRow>
    Ends forward(const BeforeRow& before_row, std::size_t* cells) {
      Ends out;
      if (max_n == 0 || max_m == 0) return out;
      Vec best = Ops::zero();
      Vec overflow = Ops::zero();
      IVec best_row[kKH], best_col[kKH];
      for (int h = 0; h < kKH; ++h) best_row[h] = best_col[h] = Ops::izero();
      alignas(32) std::uint8_t mask_bytes[kW];

      for (std::int64_t i = 0; i < max_n; ++i) {
        if (!windows(i, cells)) break;
        before_row(i);
        RowBest row{};
        sweep_row<false>(i, &row, nullptr);

        // Global best: a row that strictly improves it sets ref_end = i (the
        // first row carrying the final maximum, the oracle's tie-break).
        const Vec improved = Ops::cmpgt(row.best, best);
        best = Ops::maxu(best, row.best);
        const IVec i_v = Ops::isplat(static_cast<std::uint16_t>(i));
        for (int half = 0; half < kKH; ++half) {
          const IVec wide = Ops::expand_mask(improved, half);
          best_row[half] = Ops::iblend(wide, i_v, best_row[half]);
          best_col[half] = Ops::iblend(wide, row.arg[half], best_col[half]);
        }

        // Overflow eviction: a saturated lane's scores are untrustworthy
        // from this row on — hand the pair to the wider pass.
        const Vec sat = Ops::cmpeq(row.best, sat_v);
        if (Ops::any(sat)) {
          Ops::store_mask(mask_bytes, sat);
          overflow = Ops::vor(overflow, sat);
          for (int l = 0; l < kW; ++l) {
            if (mask_bytes[l]) row_end[l] = std::min(row_end[l], i + 1);
          }
        }
      }

      alignas(32) Elem best_out[kW];
      alignas(32) std::uint16_t row_out[kW], col_out[kW];
      Ops::store(best_out, best);
      Ops::store_mask(mask_bytes, overflow);
      for (int h = 0; h < kKH; ++h) {
        Ops::istore(row_out + h * kIW, best_row[h]);
        Ops::istore(col_out + h * kIW, best_col[h]);
      }
      for (int l = 0; l < kW; ++l) {
        out.overflow[l] = mask_bytes[l] != 0;
        if (best_out[l] > 0) {
          out.best[l] = AlignmentResult{static_cast<Score>(best_out[l]),
                                        static_cast<std::int32_t>(row_out[l]),
                                        static_cast<std::int32_t>(col_out[l])};
        }
      }
      return out;
    }
  };
};

/// Shared pass driver: cohorts run independently (host-parallel when a
/// thread budget allows), each writing only its own pairs' slots. Score
/// cohorts are consecutive runs of kW pairs; traced cohorts are packed
/// greedily under kMaxTraceCohortBytes (pairs arrive sorted longest-first,
/// so a cohort's first pair fixes its rows and its block height K).
template <class Ops>
void run_pass(const PassRequest& req) {
  constexpr std::size_t W = static_cast<std::size_t>(Ops::kLanes);
  struct CohortSpan {
    std::size_t begin, count, block_rows;
  };
  std::vector<CohortSpan> cohorts;
  const seq::PairBatch& batch = *req.batch;
  for (std::size_t begin = 0; begin < req.pairs.size();) {
    CohortSpan c{begin, 0, 0};
    if (req.traced == nullptr) {
      c.count = std::min(W, req.pairs.size() - begin);
    } else {
      const std::size_t rows = batch.refs[req.pairs[begin]].size();
      c.block_rows = checkpoint_block_rows(rows, req.checkpoint_rows);
      std::size_t cols = 0;
      while (c.count < W && begin + c.count < req.pairs.size()) {
        const std::size_t m = std::max(cols, batch.queries[req.pairs[begin + c.count]].size());
        if (c.count > 0 && trace_cohort_bytes(rows, m, c.block_rows) > kMaxTraceCohortBytes) break;
        cols = m;
        ++c.count;
      }
    }
    cohorts.push_back(c);
    begin += c.count;
  }
  util::parallel_for_indexed(
      cohorts.size(),
      [&](std::size_t k) {
        const CohortSpan& c = cohorts[k];
        const auto lanes = req.pairs.subspan(c.begin, c.count);
        if (req.traced == nullptr) {
          CohortKernel<Ops>::run_cohort(req, lanes);
        } else {
          CohortKernel<Ops>::trace_cohort(req, lanes, c.block_rows);
        }
      },
      req.threads);
}

}  // namespace saloba::align::simd::detail
