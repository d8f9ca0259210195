// Ultra-long-read X-drop wavefront bench — the asserting harness CI runs as
// `longread_xdrop --quick`. Aligns one 100 kbp+ pair end to end (forward
// masked wavefront, then the checkpointed block replays, each clipped to
// the cone of the cell where the shared TraceWalk enters the block) and
// enforces the engine's headline claims with
// *measured* numbers and deterministic counts:
//
//   1. Linear memory: the engine's measured peak heap footprint
//      (WavefrontStats::peak_bytes, container capacities at every phase
//      boundary — not a model) stays under an O(N + M) ceiling.
//   2. X-drop pruning: the forward sweep computes a small fraction of the
//      full N·M table on a related pair.
//   3. Bounded replay: the traceback re-derives each block at most once,
//      and only the walk's cone of it, so it sweeps no more cells than the
//      forward pass (about a quarter of them on the quick pair).
//
// It also extends the ablation_spill axis to the long-read regime: a full
// Smith-Waterman table would hold 12·N·M bytes of H/E/F state — the DP
// matrix a GPU kernel spills to global memory — so the modeled spill win of
// the wavefront is that table over the measured linear footprint. Emits
// BENCH_longread.json, which names the cell-body kernel it measured (`isa`:
// the AVX2 instantiation or the generic fallback; `width`: its lane bits,
// 32 for the quick pair, whose score does not fit int16). Any violation
// exits 1.
#include <algorithm>
#include <cstdio>

#include "align/simd_engine.hpp"
#include "align/traceback.hpp"
#include "align/xdrop_wavefront.hpp"
#include "core/workload.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("longread_xdrop",
                       "ultra-long-read X-drop wavefront: measured linear memory + "
                       "modeled spill win");
  args.add_int("len", "pair length in bases", 150000);
  args.add_int("xdrop", "X-drop threshold for the sweep", 400);
  args.add_flag("quick", "CI smoke mode: 100 kbp pair, tighter window");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const std::size_t len =
      quick ? 100000
            : static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("len"), 100000));
  const align::Score xdrop =
      quick ? 120 : static_cast<align::Score>(args.get_int("xdrop"));

  // One related 100 kbp+ pair (~0.5% divergence — the regime the route is
  // for: a long read against its true genomic window).
  const auto genome = core::make_genome(4 << 20);
  const auto batch = core::make_fig6_batch(genome, len, /*pairs=*/1, /*seed=*/71);
  const auto& ref = batch.refs[0];
  const auto& query = batch.queries[0];
  const std::size_t n = ref.size(), m = query.size();
  const align::ScoringScheme scoring;

  align::WavefrontStats stats;
  const util::Timer timer;
  const auto traced =
      align::xdrop_wavefront_align(ref, query, scoring, align::XDropParams{xdrop}, &stats);
  const double wall_ms = timer.millis();

  const std::size_t total_cells = stats.cells + stats.traceback_cells;
  const double gcups = wall_ms > 0 ? static_cast<double>(total_cells) / (wall_ms * 1e6) : 0;

  // The linear-memory ceiling: a small constant of lane state (int16 or
  // int32, WavefrontStats::lane_bits) per diagonal slot across all phases
  // (7 diagonal buffers + the per-diagonal windows + the checkpoints, at
  // most about 8 lanes per diagonal while the window stays narrower than
  // 4·√(N+M) cells + one replayed cone's flag bytes, at most 8·(N+M) + one
  // diagonal + the op string), plus allocator slack. Same bound the fuzz
  // suite holds every engine run to.
  const std::size_t linear_ceiling = 128 * (n + m + 2) + 4096;
  // What a full-matrix engine would spill: H/E/F as int32 over N·M — the DP
  // state a GPU kernel without the lazy-spill/wavefront machinery writes to
  // global memory (ablation_spill's axis, at long-read scale).
  const double full_matrix_bytes = 12.0 * static_cast<double>(n) * static_cast<double>(m);
  const double spill_win = full_matrix_bytes / static_cast<double>(stats.peak_bytes);
  const double prune_frac =
      static_cast<double>(stats.cells) / (static_cast<double>(n) * static_cast<double>(m));

  std::printf("longread_xdrop — %zu x %zu bp pair, xdrop=%d\n", n, m, int(xdrop));
  util::Table table({"Metric", "Value"});
  table.add_row({"isa", align::simd::isa_name()});
  table.add_row({"width", std::to_string(stats.lane_bits) + "-bit lanes"});
  table.add_row({"forward cells", std::to_string(stats.cells)});
  table.add_row({"traceback cells", std::to_string(stats.traceback_cells)});
  table.add_row({"diagonals", std::to_string(stats.diagonals)});
  table.add_row({"max wavefront", std::to_string(stats.max_wavefront)});
  table.add_row({"peak memory (measured)", std::to_string(stats.peak_bytes) + " B"});
  table.add_row({"O(N+M) ceiling", std::to_string(linear_ceiling) + " B"});
  table.add_row({"full-matrix spill (modeled)",
                 util::Table::num(full_matrix_bytes / 1e9, 2) + " GB"});
  table.add_row({"spill win", util::Table::num(spill_win, 0) + "x"});
  table.add_row({"table fraction computed", util::Table::num(prune_frac * 100, 3) + " %"});
  table.add_row({"wall", util::Table::ms(wall_ms)});
  table.add_row({"throughput", util::Table::num(gcups, 3) + " GCUPS"});
  std::printf("%s\n", table.render().c_str());

  bool ok = true;
  ok &= check(n >= 100000 && m >= 100000, "pair is 100 kbp+ on both sides");
  ok &= check(stats.peak_bytes <= linear_ceiling,
              "measured peak memory within the O(N+M) ceiling");
  ok &= check(static_cast<double>(stats.peak_bytes) <
                  static_cast<double>(n) * static_cast<double>(m) / 100.0,
              "measured peak memory < 1% of the N*M table");
  ok &= check(traced.end.score > 0, "alignment found (score > 0)");
  ok &= check(align::cigar_consistent(traced, n, m), "CIGAR consistent with the pair");
  ok &= check(align::rescore_cigar(traced, ref, query, scoring) == traced.end.score,
              "CIGAR rescores to the reported score");
  ok &= check(prune_frac < 0.05, "X-drop computed < 5% of the full table");
  ok &= check(stats.traceback_cells <= stats.cells, "traceback cells <= forward cells");
  ok &= check(spill_win >= 100.0, ">= 100x modeled spill win over a full-matrix engine");

  if (std::FILE* f = std::fopen("BENCH_longread.json", "w")) {
    std::fprintf(f,
                 "{\"bench\":\"longread_xdrop\",\"isa\":\"%s\",\"width\":%zu,"
                 "\"ref_len\":%zu,\"query_len\":%zu,"
                 "\"xdrop\":%d,\"forward_cells\":%zu,\"traceback_cells\":%zu,"
                 "\"max_wavefront\":%zu,\"peak_bytes\":%zu,\"linear_ceiling_bytes\":%zu,"
                 "\"full_matrix_bytes\":%.0f,\"spill_win\":%.1f,\"table_fraction\":%.5f,"
                 "\"score\":%d,\"wall_ms\":%.3f,\"gcups\":%.3f,\"ok\":%s}\n",
                 align::simd::isa_name(), stats.lane_bits, n, m, int(xdrop), stats.cells,
                 stats.traceback_cells, stats.max_wavefront, stats.peak_bytes, linear_ceiling,
                 full_matrix_bytes, spill_win, prune_frac, int(traced.end.score),
                 wall_ms, gcups, ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_longread.json\n");
  }

  return ok ? 0 : 1;
}
