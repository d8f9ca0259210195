#include "align/traceback_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "align/traceback.hpp"
#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

/// Row-state snapshot taken after `row` forward rows: the h_row / f_col
/// arrays restricted to the columns the next block can still read from
/// pre-snapshot rows — everything else is the never-written initial state
/// (H = 0, F = -inf), so a fresh buffer plus this window restores the sweep
/// exactly.
struct Checkpoint {
  std::size_t col_lo = 0;  ///< first h_row/f_col index stored
  std::vector<Score> h;
  std::vector<Score> f;
};

/// One re-derived block of rows for the backward walk: the flag byte of
/// every in-band cell of rows [first_row, first_row + rows.size()) (1-based
/// DP rows). The flags already hold every cross-row comparison the walk
/// makes, so the block needs nothing from the row above it.
struct Block {
  struct Row {
    std::size_t col_lo = 1;  ///< first 1-based column stored
    std::vector<std::uint8_t> flags;
  };
  std::size_t first_row = 1;  ///< 1-based DP row of rows.front()
  std::vector<Row> rows;

  bool contains(std::size_t row) const {
    return row >= first_row && row < first_row + rows.size();
  }

  /// The flag byte of 1-based cell (row, col); out-of-band cells read the
  /// masked-DP neutral values (H = 0, E/F = -inf), i.e. kTraceZero alone.
  std::uint8_t flag_at(std::size_t row, std::size_t col) const {
    SALOBA_CHECK_MSG(contains(row), "traceback block does not cover row");
    const Row& r = rows[row - first_row];
    if (col < r.col_lo || col >= r.col_lo + r.flags.size()) return kTraceZero;
    return r.flags[col - r.col_lo];
  }
};

struct Engine {
  std::span<const seq::BaseCode> ref;
  std::span<const seq::BaseCode> query;
  const ScoringScheme& scoring;
  std::size_t band;        ///< effective band (>= 1, covers the table if unbanded)
  std::size_t chunk;       ///< rows per checkpoint block
  std::vector<Checkpoint> checkpoints;
  TracebackStats stats;

  std::size_t n() const { return ref.size(); }
  std::size_t m() const { return query.size(); }

  /// The snapshot window for a checkpoint taken after 0-based row `row`:
  /// rows >= `row` read h_row/f_col indices in [row - band, row + band + 1];
  /// anything outside was either never written before `row` (initial state)
  /// or gets rewritten before it is read again.
  std::pair<std::size_t, std::size_t> window_after(std::size_t row) const {
    std::size_t hi = std::min(m(), row + band + 1);
    // Rows past m - 1 + band have empty band windows; clamp so the snapshot
    // degenerates cleanly instead of underflowing.
    std::size_t lo = std::min(row > band ? row - band : 0, hi);
    return {lo, hi};
  }

  void snapshot(std::size_t row, const std::vector<Score>& h_row,
                const std::vector<Score>& f_col) {
    auto [lo, hi] = window_after(row);
    Checkpoint cp;
    cp.col_lo = lo;
    cp.h.assign(h_row.begin() + static_cast<std::ptrdiff_t>(lo),
                h_row.begin() + static_cast<std::ptrdiff_t>(hi + 1));
    cp.f.assign(f_col.begin() + static_cast<std::ptrdiff_t>(lo),
                f_col.begin() + static_cast<std::ptrdiff_t>(hi + 1));
    stats.traffic_bytes += 2 * cp.h.size() * sizeof(Score);
    checkpoints.push_back(std::move(cp));
  }

  /// Walk-time row state, allocated once per pair and selectively reset
  /// between block re-derivations: a full O(m) clear per block would dwarf
  /// the O(rows·band) replay work on long banded pairs.
  std::vector<Score> walk_h{}, walk_f{};
  std::size_t dirty_lo = 1, dirty_hi = 0;  ///< columns the last restore+sweep touched
  bool walk_ready = false;

  /// Rebuilds the row state "after `block_index`'s snapshot row" into
  /// walk_h/walk_f. Every write of the restore and of the subsequent block
  /// sweep (rows [first0, end0)) lands in [checkpoint col_lo, end0 + band],
  /// so resetting just that range returns the buffers to their pristine
  /// H = 0 / F = -inf state.
  void restore(std::size_t block_index, std::size_t end0) {
    if (!walk_ready) {
      walk_h.assign(m() + 1, 0);
      walk_f.assign(m() + 1, kNegInf);
      walk_ready = true;
    } else {
      for (std::size_t k = dirty_lo; k <= dirty_hi; ++k) {
        walk_h[k] = 0;
        walk_f[k] = kNegInf;
      }
    }
    const Checkpoint& cp = checkpoints[block_index];
    std::copy(cp.h.begin(), cp.h.end(),
              walk_h.begin() + static_cast<std::ptrdiff_t>(cp.col_lo));
    std::copy(cp.f.begin(), cp.f.end(),
              walk_f.begin() + static_cast<std::ptrdiff_t>(cp.col_lo));
    dirty_lo = cp.col_lo;
    dirty_hi = std::max(std::min(m(), end0 + band), cp.col_lo + cp.h.size() - 1);
  }

  /// Forward sweep over 0-based rows [row_begin, row_end) from the given row
  /// state — the exact loop of align::smith_waterman_banded. With kFlags,
  /// `capture(i, j, flags)` receives every computed cell's flag byte (a
  /// block re-derivation); `cells` counts the work. `best` receives the best
  /// endpoint when non-null.
  template <bool kFlags, typename Capture>
  void sweep(std::size_t row_begin, std::size_t row_end, std::vector<Score>& h_row,
             std::vector<Score>& f_col, std::size_t& cells, AlignmentResult* best,
             const Capture& capture) const {
    const Score alpha = scoring.alpha();
    const Score beta = scoring.beta();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      std::size_t j_lo = (i >= band) ? i - band : 0;
      std::size_t j_hi = std::min(m() - 1, i + band);
      if (j_lo > j_hi) continue;

      Score h_diag = (j_lo == 0) ? 0 : h_row[j_lo];
      Score h_left = 0;
      Score e = kNegInf;
      for (std::size_t j = j_lo; j <= j_hi; ++j) {
        const Score e_open = h_left - alpha;
        e = std::max(e_open, e - beta);
        const Score f_open = h_row[j + 1] - alpha;
        const Score f = std::max(f_open, f_col[j + 1] - beta);
        const Score diag = h_diag + scoring.substitution(ref[i], query[j]);
        const Score h = std::max({Score{0}, diag, e, f});

        h_diag = h_row[j + 1];
        h_row[j + 1] = h;
        f_col[j + 1] = f;
        h_left = h;
        ++cells;
        if constexpr (kFlags) capture(i, j, trace_flags(h, diag, e, f, e_open, f_open));

        if (best && h > best->score) {
          *best = AlignmentResult{h, static_cast<std::int32_t>(i),
                                  static_cast<std::int32_t>(j)};
        }
      }
    }
  }

  /// Re-derives the block containing 1-based DP row `row` from its snapshot.
  Block rederive(std::size_t row) {
    SALOBA_CHECK_MSG(row >= 1 && row <= n(), "traceback walk left the table");
    const std::size_t b = (row - 1) / chunk;
    const std::size_t first0 = b * chunk;                    // 0-based first row
    const std::size_t end0 = std::min(n(), first0 + chunk);  // 0-based past-the-end

    restore(b, end0);

    Block blk;
    blk.first_row = first0 + 1;
    blk.rows.reserve(end0 - first0);
    std::size_t current = static_cast<std::size_t>(-1);
    std::size_t block_cells = 0;
    sweep<true>(first0, end0, walk_h, walk_f, block_cells, nullptr,
                [&](std::size_t i, std::size_t j, std::uint8_t flags) {
                  if (i != current) {
                    current = i;
                    blk.rows.emplace_back();
                    blk.rows.back().col_lo = j + 1;  // 1-based first in-band column
                  }
                  blk.rows.back().flags.push_back(flags);
                });
    // Rows whose band window is empty (past m - 1 + band) hold no cells;
    // they can only trail the block, and the walk never visits them.
    while (blk.first_row + blk.rows.size() <= row) blk.rows.emplace_back();
    stats.replay_cells += block_cells;
    stats.traffic_bytes += 3 * block_cells * sizeof(Score);
    return blk;
  }
};

}  // namespace

TracebackResult banded_traceback(std::span<const seq::BaseCode> ref,
                                 std::span<const seq::BaseCode> query,
                                 const ScoringScheme& scoring,
                                 const TracebackParams& params) {
  SALOBA_CHECK(scoring.valid());
  TracebackResult out;
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  if (n == 0 || m == 0) return out;

  Engine eng{ref, query, scoring,
             params.band != 0 ? params.band : std::max(n, m),
             checkpoint_block_rows(n, params.checkpoint_rows),
             {},
             {}};

  // --- Phase A: checkpointed forward sweep (smith_waterman_banded's loop,
  // snapshotting the row state ahead of every `chunk`-row block).
  std::vector<Score> h_row(m + 1, 0), f_col(m + 1, kNegInf);
  AlignmentResult best;
  for (std::size_t first0 = 0; first0 < n; first0 += eng.chunk) {
    eng.snapshot(first0, h_row, f_col);
    eng.sweep<false>(first0, std::min(n, first0 + eng.chunk), h_row, f_col,
                     eng.stats.forward_cells, &best,
                     [](std::size_t, std::size_t, std::uint8_t) {});
  }

  out.traced.end = best;
  if (best.score == 0) {
    out.stats = eng.stats;
    return out;
  }

  // --- Phase B: backward walk (TraceWalk, the state machine every engine
  // shares), re-deriving one block at a time. Out-of-band cells read the
  // masked-DP neutral values, so banded paths can never leave the band.
  TraceWalk walk(best);
  while (!walk.done()) {
    const Block blk = eng.rederive(walk.row());
    walk.advance([&](std::size_t row, std::size_t) { return row >= blk.first_row; },
                 [&](std::size_t row, std::size_t col) { return blk.flag_at(row, col); });
  }
  out.traced = walk.result();
  eng.stats.traffic_bytes += walk.steps() * 3 * sizeof(Score);  // the walk's reads
  out.stats = eng.stats;
  return out;
}

TracedAlignment TraceWalk::result() const {
  SALOBA_CHECK_MSG(done_, "traceback walk has not finished");
  TracedAlignment out;
  out.end = end_;
  if (end_.score <= 0) return out;
  out.ref_start = static_cast<std::int32_t>(i_);
  out.query_start = static_cast<std::int32_t>(j_);
  out.cigar = compress_cigar(std::string(ops_.rbegin(), ops_.rend()));
  return out;
}

std::size_t checkpoint_block_rows(std::size_t rows, std::size_t checkpoint_rows) {
  if (checkpoint_rows != 0) return checkpoint_rows;
  return std::max<std::size_t>(8, static_cast<std::size_t>(std::sqrt(static_cast<double>(rows))));
}

}  // namespace saloba::align
