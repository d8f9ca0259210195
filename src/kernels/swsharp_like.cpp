// SW#-like kernel (paper ref [35]): intra-query alignment built for
// genome-scale sequences. The DP table is split into square tiles; each
// anti-diagonal wave of tiles is one kernel launch, with tile boundary rows
// and columns exchanged through global-memory buses (the CUDAlign
// horizontal/vertical bus design). For seed-extension-sized batches this is
// pathological — thousands of short pairs × several launches each, at
// single-digit block occupancy — which is exactly why the paper finds it the
// slowest baseline (Sec. V-B: "very low resource utilization").
#include <array>
#include <vector>

#include "kernels/block_dp.hpp"
#include "kernels/kernel_iface.hpp"
#include "util/check.hpp"

namespace saloba::kernels {
namespace {

using align::AlignmentResult;
using align::Score;
using gpusim::MemAccess;

constexpr std::size_t kTile = 256;    ///< tile edge, in cells
constexpr int kThreadsPerTile = 256;  ///< one thread per tile column
constexpr std::uint64_t kInstrPerDiag = 12;

class SwSharpKernel final : public ExtensionKernel {
 public:
  SwSharpKernel() {
    info_.name = "SW#";
    info_.parallelism = "intra-query";
    info_.bitwidth = 8;  // kept at its original 8-bit packing (Sec. V-A)
    info_.mapping = "one-to-many";
    info_.exact_with_n = true;
  }
  const KernelInfo& info() const override { return info_; }

  KernelResult run(gpusim::Device& device, const seq::PairBatch& batch,
                   const align::ScoringScheme& scoring) const override {
    const std::size_t pairs = batch.size();
    SALOBA_CHECK_MSG(pairs > 0, "empty batch");

    gpusim::DeviceMem seq_mem =
        device.alloc((batch.max_query_len() + batch.max_ref_len() + 8) * 2, "sw#.seqs");
    gpusim::DeviceMem bus_mem =
        device.alloc((batch.max_query_len() + batch.max_ref_len()) * 16 + 64, "sw#.buses");

    std::vector<AlignmentResult> results(pairs);
    gpusim::RunAccumulator acc;
    const Score alpha = scoring.alpha();
    const Score beta = scoring.beta();
    const int warp_size = device.spec().warp_size;

    // SW# processes one pair at a time: per pair, one launch per tile wave.
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto& query = batch.queries[p];
      const auto& ref = batch.refs[p];
      if (query.empty() || ref.empty()) {
        results[p] = AlignmentResult{};
        continue;
      }
      const std::size_t n = ref.size();
      const std::size_t m = query.size();
      const std::size_t tile_rows = (n + kTile - 1) / kTile;
      const std::size_t tile_cols = (m + kTile - 1) / kTile;

      // Buses between tiles: vertical bus holds (H, E) of the column just
      // left of the current tile column, per reference row; horizontal bus
      // holds (H, F) of the row just above, per query column. `corner`
      // stores H(ti·T-1, tj·T-1) for every tile, which neither bus preserves
      // (the neighbouring tiles overwrite those entries one wave earlier).
      std::vector<Score> vbus_h(n, 0), vbus_e(n, kBoundaryNegInf);
      std::vector<Score> hbus_h(m, 0), hbus_f(m, kBoundaryNegInf);
      std::vector<Score> corner((tile_rows + 1) * (tile_cols + 1), 0);
      auto corner_at = [&](std::size_t ti, std::size_t tj) -> Score& {
        return corner[ti * (tile_cols + 1) + tj];
      };
      AlignmentResult best;

      // Banded extension (Sec. VII-B): a banded SW# launches only the tiles
      // of each wave that intersect |i - j| <= band — out-of-band tiles'
      // bus rows/columns are the known neutral values (H = 0, E/F = -inf)
      // and are published host-side without a launch. band 0 = full table.
      const std::size_t pair_band = batch.band_of(p);

      const std::size_t waves = tile_rows + tile_cols - 1;
      std::vector<std::size_t> live;  // in-band tiles of a wave (ti values)
      live.reserve(tile_rows);
      for (std::size_t wave = 0; wave < waves; ++wave) {
        std::size_t ti_lo = (wave >= tile_cols) ? wave - tile_cols + 1 : 0;
        std::size_t ti_hi = std::min(tile_rows - 1, wave);

        live.clear();
        for (std::size_t ti = ti_lo; ti <= ti_hi; ++ti) {
          const std::size_t tj = wave - ti;
          const std::size_t i_base = ti * kTile;
          const std::size_t j_base = tj * kTile;
          const std::size_t rows = std::min(kTile, n - i_base);
          const std::size_t cols = std::min(kTile, m - j_base);
          if (block_intersects_band(i_base, j_base, static_cast<int>(rows),
                                    static_cast<int>(cols), pair_band)) {
            live.push_back(ti);
            continue;
          }
          // Fully out-of-band tile: publish the neutral buses it would have
          // produced (its every cell masks to H = 0 / E,F = -inf).
          for (std::size_t r = 0; r < rows; ++r) {
            vbus_h[i_base + r] = 0;
            vbus_e[i_base + r] = kBoundaryNegInf;
          }
          for (std::size_t c = 0; c < cols; ++c) {
            hbus_h[j_base + c] = 0;
            hbus_f[j_base + c] = kBoundaryNegInf;
          }
          corner_at(ti + 1, tj + 1) = 0;
          acc.stats.totals.dp_cells_skipped += rows * cols;
        }
        if (live.empty()) continue;  // whole wave out of band: nothing to launch

        std::uint32_t blocks = static_cast<std::uint32_t>(live.size());
        std::vector<AlignmentResult> wave_best(blocks);

        gpusim::LaunchConfig config;
        config.label = "SW#";
        config.blocks = blocks;
        config.threads_per_block = kThreadsPerTile;
        config.shared_bytes_per_block = kThreadsPerTile * 3 * 8;

        auto launch = device.launch(config, [&](gpusim::BlockContext& blk) {
          const std::size_t ti = live[blk.block_id()];
          const std::size_t tj = wave - ti;
          const std::size_t i_base = ti * kTile;
          const std::size_t j_base = tj * kTile;
          const std::size_t rows = std::min(kTile, n - i_base);
          const std::size_t cols = std::min(kTile, m - j_base);
          const int warps = blk.warps_per_block();

          // Bus + sequence loads: coalesced 128 B bursts by warp 0.
          std::uint64_t load_bytes = rows * 8 + cols * 8 + rows + cols;
          for (std::uint64_t off = 0; off < load_bytes; off += 128) {
            std::array<MemAccess, 32> macc{};
            for (int l = 0; l < warp_size; ++l) {
              std::uint64_t byte = off + static_cast<std::uint64_t>(l) * 4;
              if (byte >= load_bytes) break;
              macc[static_cast<std::size_t>(l)] = MemAccess{bus_mem.base + byte, 4};
            }
            blk.warp(0).global_read(macc);
          }

          // Functional tile DP (row-major; the accounting below models the
          // wavefront execution the real kernel uses).
          std::vector<Score> h_row(cols), f_col(cols);
          for (std::size_t c = 0; c < cols; ++c) {
            h_row[c] = (i_base == 0) ? 0 : hbus_h[j_base + c];
            f_col[c] = (i_base == 0) ? kBoundaryNegInf : hbus_f[j_base + c];
          }
          AlignmentResult tile_best;
          Score diag_carry =
              (i_base == 0 || j_base == 0) ? 0 : corner_at(ti, tj);

          std::uint64_t computed = 0;
          const auto bb = static_cast<std::int64_t>(pair_band);
          for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t i = i_base + r;
            Score h_left = (j_base == 0) ? 0 : vbus_h[i];
            Score e = (j_base == 0) ? kBoundaryNegInf : vbus_e[i];
            Score h_diag = diag_carry;
            diag_carry = h_left;  // H(i, j_base-1) feeds the next row's diag

            for (std::size_t c = 0; c < cols; ++c) {
              const std::size_t j = j_base + c;
              Score h, f;
              if (pair_band > 0 &&
                  (static_cast<std::int64_t>(j) - static_cast<std::int64_t>(i) > bb ||
                   static_cast<std::int64_t>(i) - static_cast<std::int64_t>(j) > bb)) {
                // Masked cell: publish the out-of-band boundary values.
                h = 0;
                e = kBoundaryNegInf;
                f = kBoundaryNegInf;
              } else {
                e = std::max(h_left - alpha, e - beta);
                f = std::max(h_row[c] - alpha, f_col[c] - beta);
                h = std::max({Score{0}, h_diag + scoring.substitution(ref[i], query[j]), e,
                              f});
                ++computed;
                align::take_better(tile_best,
                                   AlignmentResult{h, static_cast<std::int32_t>(i),
                                                   static_cast<std::int32_t>(j)});
              }
              h_diag = h_row[c];
              h_row[c] = h;
              f_col[c] = f;
              h_left = h;
            }
            vbus_h[i] = h_left;  // rightmost column feeds the vertical bus
            vbus_e[i] = e;
          }
          blk.warp(0).add_cells(computed);
          blk.warp(0).add_skipped_cells(
              static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) - computed);

          // Preserve the corner for the diagonal neighbour before the buses
          // are overwritten by tiles of later waves.
          corner_at(ti + 1, tj + 1) = h_row[cols - 1];

          for (std::size_t c = 0; c < cols; ++c) {
            hbus_h[j_base + c] = h_row[c];
            hbus_f[j_base + c] = f_col[c];
          }
          wave_best[blk.block_id()] = tile_best;

          // Accounting: wavefront execution of the tile.
          const std::size_t diags = rows + cols - 1;
          for (std::size_t d = 0; d < diags; ++d) {
            std::size_t c_lo = (d >= rows) ? d - rows + 1 : 0;
            std::size_t c_hi = std::min(cols - 1, d);
            for (int w = 0; w < warps; ++w) {
              std::size_t band_lo = static_cast<std::size_t>(w) * warp_size;
              std::size_t band_hi = band_lo + static_cast<std::size_t>(warp_size) - 1;
              if (band_lo > c_hi || band_hi < c_lo) continue;
              int active =
                  static_cast<int>(std::min(band_hi, c_hi) - std::max(band_lo, c_lo) + 1);
              blk.warp(w).issue(kInstrPerDiag, active);
            }
            if (warps > 1) blk.syncthreads();
          }

          // Bus writeback: coalesced bursts.
          std::uint64_t store_bytes = rows * 8 + cols * 8;
          for (std::uint64_t off = 0; off < store_bytes; off += 128) {
            std::array<MemAccess, 32> macc{};
            for (int l = 0; l < warp_size; ++l) {
              std::uint64_t byte = off + static_cast<std::uint64_t>(l) * 4;
              if (byte >= store_bytes) break;
              macc[static_cast<std::size_t>(l)] = MemAccess{bus_mem.base + byte, 4};
            }
            blk.warp(0).global_write(macc);
          }
        });
        acc.add(launch);
        // SW# runs a second small kernel per wave to reduce per-block
        // maxima and stage bus state for the next wave: launch overhead
        // plus a token amount of work.
        gpusim::LaunchConfig reduce_cfg;
        reduce_cfg.label = "SW#-reduce";
        reduce_cfg.blocks = 1;
        reduce_cfg.threads_per_block = 32;
        acc.add(device.launch(reduce_cfg, [&](gpusim::BlockContext& blk) {
          blk.warp(0).issue(64, 32);
        }));
        for (const auto& b : wave_best) align::take_better(best, b);
      }

      if (best.score == 0) best = AlignmentResult{};
      results[p] = best;
    }

    device.free(seq_mem);
    device.free(bus_mem);

    KernelResult out;
    out.results = std::move(results);
    out.stats = acc.stats;
    out.time = acc.time;
    out.launches = acc.launches;
    return out;
  }

 private:
  KernelInfo info_;
};

KernelPtr make_swsharp_like(std::size_t nominal_pairs) {
  (void)nominal_pairs;
  return std::make_unique<SwSharpKernel>();
}

const KernelRegistrar reg_swsharp{"sw#", {"swsharp"}, 50, &make_swsharp_like};

}  // namespace
}  // namespace saloba::kernels
