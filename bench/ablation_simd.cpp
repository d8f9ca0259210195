// SIMD extension-engine ablation: the first *measured* (not modeled)
// speedup in the repo. An asserting harness — CI runs `ablation_simd
// --quick` — that puts a HostBackend lane (the inter-sequence SIMD engine)
// against the scalar oracles on the same medium-read batch, for the score
// pass (run vs align::align_batch) and for traced alignment (run_traced:
// the checkpointed SIMD cohort pass vs a per-pair align::banded_traceback
// loop; each produces every pair's end and trace from one forward sweep),
// and requires:
//
//   1. bit-identical results (scores, endpoints) and cell counts from the
//      score pass, and bit-identical ends, forward cells and traces
//      (CIGARs, start coordinates) from the traced runs,
//   2. when the AVX2 kernels are dispatched, a strict >= 2x wall-clock win
//      in each section (on the generic-fallback build only identity is
//      asserted — the portable kernels exist for correctness, not speed),
//
// and emits a BENCH_simd.json throughput record to seed the perf
// trajectory. Any violation exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "align/traceback_engine.hpp"
#include "bench_common.hpp"
#include "core/backend.hpp"
#include "core/workload.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

struct ScalarTraces {
  std::vector<align::TracedAlignment> traced;
  std::size_t forward_cells = 0;
  std::size_t replay_cells = 0;
};

/// The scalar traced run: align::banded_traceback per pair with the pair's
/// band, each run's forward sweep settling the pair's end.
ScalarTraces scalar_traceback(const seq::PairBatch& batch, const align::ScoringScheme& scoring) {
  ScalarTraces out;
  out.traced.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    align::TracebackParams params;
    params.band = batch.band_of(i);
    auto r = align::banded_traceback(batch.refs[i], batch.queries[i], scoring, params);
    out.traced[i] = std::move(r.traced);
    out.forward_cells += r.stats.forward_cells;
    out.replay_cells += r.stats.replay_cells;
  }
  return out;
}

/// Min-of-reps wall time of `run`.
template <typename Run>
double min_ms(int reps, const Run& run) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const util::Timer t;
    run();
    const double ms = t.millis();
    best = r == 0 ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_simd",
                       "measured SIMD vs scalar CPU extension (inter-sequence engine)");
  args.add_int("pairs", "medium-read pairs in the benchmark batch", 3000);
  args.add_int("len", "pair length in bases", 192);
  args.add_int("reps", "timing repetitions (min is reported)", 5);
  args.add_flag("quick", "CI smoke mode: smaller batch, fewer reps");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const std::size_t pairs =
      quick ? 800 : static_cast<std::size_t>(args.get_int("pairs"));
  const std::size_t len = static_cast<std::size_t>(args.get_int("len"));
  const int reps = quick ? 3 : args.get_int("reps");

  align::ScoringScheme scoring;
  auto genome = core::make_genome(4 << 20);
  auto batch = core::make_fig6_batch(genome, len, pairs, /*seed=*/23);

  // Both sides single-threaded: this measures the engines, not the thread
  // count.
  core::HostBackend simd(scoring, /*threads=*/1);
  bool ok = true;

  // --- 1. Identity: results and cell accounting, bit for bit -------------
  align::BatchTiming scalar_timing;
  const auto scalar_out = align::align_batch(batch, scoring, &scalar_timing, /*threads=*/1);
  auto simd_out = simd.run(batch, 0);
  std::size_t identical = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    identical += scalar_out[i] == simd_out.items[i];
  }
  ok &= check(identical == batch.size(),
              "SIMD results (scores + endpoints) bit-identical to align::align_batch");
  ok &= check(simd_out.work == scalar_timing.cells,
              "SIMD cell accounting identical to align::align_batch");

  // --- 2. Measured wall-clock ---------------------------------------------
  const bool avx2 = align::simd::compiled_with_avx2() && align::simd::cpu_supports_avx2();
  const double scalar_ms =
      min_ms(reps, [&] { align::align_batch(batch, scoring, nullptr, /*threads=*/1); });
  const double simd_ms = min_ms(reps, [&] { simd.run(batch, 0); });
  const double speedup = scalar_ms / std::max(simd_ms, 1e-9);
  const double cells = static_cast<double>(scalar_timing.cells);
  const double gcups_scalar = cells / (scalar_ms * 1e6);
  const double gcups_simd = cells / (simd_ms * 1e6);

  align::simd::EngineStats stats;
  align::simd::align_batch(batch, scoring, &stats, /*threads=*/1);

  std::printf("SIMD extension ablation — %zu pairs of %zu bp, %.1f M cells, isa=%s\n",
              batch.size(), len, cells / 1e6, align::simd::isa_name());
  std::printf("  scalar oracle     : %9.3f ms  (%6.3f GCUPS)\n", scalar_ms, gcups_scalar);
  std::printf("  SIMD lane         : %9.3f ms  (%6.3f GCUPS)\n", simd_ms, gcups_simd);
  std::printf("  measured speedup  : %9.2fx  (8-bit %zu, 16-bit %zu, int32 %zu)\n\n",
              speedup, stats.pairs_8bit, stats.rescued_16bit, stats.rescued_32bit);

  // --- 3. Traced runs: identical ends and traces, measured wall-clock -----
  const ScalarTraces tb_scalar = scalar_traceback(batch, scoring);
  const core::TracedRun tb_simd = simd.run_traced(batch, 0);
  std::size_t tb_identical = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    tb_identical += tb_scalar.traced[i] == tb_simd.trace.items[i] &&
                    tb_simd.score.items[i] == scalar_out[i];
  }
  ok &= check(tb_identical == batch.size(),
              "SIMD traced run (ends, CIGARs, starts) bit-identical to align::banded_traceback");
  ok &= check(tb_simd.score.work == tb_scalar.forward_cells &&
                  tb_scalar.forward_cells == scalar_timing.cells,
              "one forward sweep per pair: traced cells equal align::align_batch's");
  const double tb_scalar_ms = min_ms(reps, [&] { scalar_traceback(batch, scoring); });
  const double tb_simd_ms = min_ms(reps, [&] { simd.run_traced(batch, 0); });
  const double tb_speedup = tb_scalar_ms / std::max(tb_simd_ms, 1e-9);
  std::printf("  traced, scalar    : %9.3f ms  (%.1f M forward + %.1f M replayed cells)\n",
              tb_scalar_ms, static_cast<double>(tb_scalar.forward_cells) / 1e6,
              static_cast<double>(tb_scalar.replay_cells) / 1e6);
  std::printf("  traced, SIMD      : %9.3f ms  (%.1f M forward + %.1f M replayed cells)\n",
              tb_simd_ms, static_cast<double>(tb_simd.score.work) / 1e6,
              static_cast<double>(tb_simd.trace.work) / 1e6);
  std::printf("  traced speedup    : %9.2fx\n\n", tb_speedup);

  if (avx2) {
    ok &= check(speedup >= 2.0, ">= 2x measured wall-clock win over align::align_batch");
    ok &= check(tb_speedup >= 2.0,
                ">= 2x measured traced-run wall-clock win over align::banded_traceback");
  } else {
    std::printf("note: AVX2 unavailable (generic fallback) — asserting identity only.\n");
  }

  // --- 4. Throughput record ----------------------------------------------
  if (std::FILE* f = std::fopen("BENCH_simd.json", "w")) {
    std::fprintf(f,
                 "{\"bench\":\"ablation_simd\",\"pairs\":%zu,\"len\":%zu,"
                 "\"cells\":%.0f,\"isa\":\"%s\",\"scalar_ms\":%.3f,\"simd_ms\":%.3f,"
                 "\"speedup\":%.3f,\"gcups_scalar\":%.3f,\"gcups_simd\":%.3f,"
                 "\"tb_scalar_ms\":%.3f,\"tb_simd_ms\":%.3f,\"tb_speedup\":%.3f,"
                 "\"identical\":%s}\n",
                 batch.size(), len, cells, align::simd::isa_name(), scalar_ms, simd_ms,
                 speedup, gcups_scalar, gcups_simd, tb_scalar_ms, tb_simd_ms, tb_speedup,
                 identical == batch.size() && tb_identical == batch.size() ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_simd.json\n");
  }

  return ok ? 0 : 1;
}
