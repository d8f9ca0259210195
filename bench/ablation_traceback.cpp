// Ablation: the batched traceback phase, end to end.
//
// Asserting harness (the CI smoke contract):
//   1. Turning the traceback phase on changes nothing about the score pass:
//      AlignOutput::results identical with and without it, on the CPU
//      backend (whose traced run takes its results from the traced sweep
//      itself, so this checks that one wave against a score-only run) and
//      on a simulated kernel.
//   2. Every traced endpoint equals its score-pass result and the SAM
//      records the batched pipeline emits are byte-identical to the legacy
//      per-read full-matrix recompute.
//   3. The batched CIGAR pipeline (ReadMapper::map_batch with a traced
//      Aligner's extender: every mapped window traced as one batch on the
//      host engine's lanes) beats the legacy path — a serial
//      O(N*M)-memory smith_waterman_traceback per mapped read on the caller
//      thread — on wall clock. The workload is long reads, where the full
//      matrix (tens of MB per read) thrashes and the engine's linear-memory
//      working set does not; on multi-core hosts the batch additionally
//      parallelizes while the legacy path cannot.
//   4. The simulated backend reports the score-vs-traceback phase split
//      (AlignOutput::time_ms vs traceback_ms, the Phase::kTraceback counters).
// Any violation exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "align/traceback.hpp"
#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "seedext/sam_output.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

/// The pre-refactor SAM path: full-matrix traceback of each mapped read's
/// genome window, one read at a time on the caller thread, then the same
/// record formatter as the batched path.
seq::SamRecord legacy_record(const seedext::ReadMapper& mapper, const seq::Sequence& read,
                             seedext::ReadMapping mapping) {
  if (mapping.mapped) {
    const auto& genome = mapper.genome();
    std::vector<seq::BaseCode> oriented =
        mapping.reverse_strand ? seq::reverse_complement(read.bases) : read.bases;
    auto win = seedext::mapped_window(genome.size(), mapping.ref_pos, oriented.size());
    std::span<const seq::BaseCode> window(genome.data() + win.start, win.end - win.start);
    mapping.traced =
        align::smith_waterman_traceback(window, oriented, mapper.params().scoring);
    mapping.has_traceback = true;
  }
  return seedext::to_sam_record(mapper, read, mapping, "chrT");
}

std::string render(const std::vector<seq::SamRecord>& records) {
  std::ostringstream out;
  seq::SamHeader header;
  header.reference_name = "chrT";
  seq::SamWriter writer(out, header);
  for (const auto& r : records) writer.write(r);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_traceback", "batched traceback phase vs per-read recompute");
  args.add_int("reads", "long reads for the SAM pipeline comparison", 80);
  args.add_int("read_len", "read length for the SAM pipeline comparison", 1500);
  args.add_int("pairs", "pairs for the phase-split harness", 64);
  args.add_flag("quick", "CI smoke mode: smaller workload");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const std::size_t n_reads = quick ? 20 : static_cast<std::size_t>(args.get_int("reads"));
  bool ok = true;

  // --- 1. Score pass untouched by the phase, CPU and simulated ------------
  auto genome = core::make_genome(1 << 20);
  auto phase_batch =
      core::make_fig6_batch(genome, 512, static_cast<std::size_t>(args.get_int("pairs")),
                            /*seed=*/13);
  for (core::Backend backend : {core::Backend::kCpu, core::Backend::kSimulated}) {
    core::AlignerOptions opts;
    opts.backend = backend;
    auto plain = core::Aligner(opts).align(phase_batch);
    opts.traceback = true;
    auto traced = core::Aligner(opts).align(phase_batch);
    ok &= check(plain.results == traced.results,
                "traceback-on results identical to the score-only pass");
    std::size_t agree = 0;
    for (std::size_t i = 0; i < phase_batch.size(); ++i) {
      agree += traced.traced[i].end == traced.results[i];
    }
    ok &= check(agree == phase_batch.size(),
                "every traced endpoint equals its score-pass result");
    if (backend == core::Backend::kSimulated) {
      // --- 4. Phase split on the simulated device -----------------------
      ok &= check(traced.traceback_ms > 0.0, "simulated traceback phase time reported");
      const gpusim::Phase tb = gpusim::Phase::kTraceback;
      ok &= check(traced.kernel_stats &&
                      traced.kernel_stats->totals.phases[tb].work == traced.traceback_cells,
                  "KernelStats traceback cells match the phase's cell count");
      ok &= check(traced.time_breakdown && traced.time_breakdown->phase_ms[tb] > 0.0,
                  "TimeBreakdown carries the traceback component");
      std::printf(
          "Phase split (saloba kernel, %zu pairs of 512 bp): score %.3f ms, traceback "
          "%.3f ms (%.1f%% of total), %.1f M traceback cells\n",
          phase_batch.size(), traced.time_ms, traced.traceback_ms,
          100.0 * traced.traceback_ms / (traced.time_ms + traced.traceback_ms),
          static_cast<double>(traced.traceback_cells) / 1e6);
    }
  }

  // --- 2 + 3. Batched CIGAR pipeline vs legacy per-read recompute ---------
  seq::ReadProfile profile =
      seq::ReadProfile::equal_length(static_cast<std::size_t>(args.get_int("read_len")));
  profile.mutation_rate = 0.02;
  profile.error_rate = 0.01;
  seq::ReadSimulator sim(genome, profile, 29);
  auto simulated = sim.simulate(n_reads);
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (auto& r : simulated) {
    reads.push_back(r.read);
    read_seqs.push_back(r.read.bases);
  }

  seedext::ReadMapper mapper(genome, seedext::MapperParams{});
  // Plain score-pass aligner for the extension stage: the traceback phase
  // belongs to the window batch, not to every extension job.
  core::Aligner aligner{core::AlignerOptions{}};
  core::AlignerOptions trace_opts;
  trace_opts.traceback = true;
  core::Aligner trace_aligner(trace_opts);

  // Legacy: extension-batched mapping, then one full-matrix traceback per
  // mapped read, serial on the caller thread (the pre-refactor
  // to_sam_record). Best-of-N so scheduler noise on a loaded runner cannot
  // mask the structural margin (full-matrix thrash + serial caller thread
  // vs cache-resident engine + host-parallel batch).
  auto time_legacy = [&](int repeats, double& ms_out) {
    std::vector<seq::SamRecord> out;
    for (int rep = 0; rep < repeats; ++rep) {
      util::Timer timer;
      auto legacy_mappings = mapper.map_batch(read_seqs, aligner.batch_extender());
      out.clear();
      for (std::size_t i = 0; i < reads.size(); ++i) {
        out.push_back(legacy_record(mapper, reads[i], std::move(legacy_mappings[i])));
      }
      double ms = timer.millis();
      ms_out = rep == 0 ? ms : std::min(ms_out, ms);
    }
    return out;
  };

  // Batched: the traceback stage runs as one batch through the traced
  // aligner's scheduler and to_sam_record just consumes the stored CIGARs.
  std::vector<seedext::ReadMapping> mappings;
  auto time_batched = [&](int repeats, double& ms_out) {
    std::vector<seq::SamRecord> out;
    for (int rep = 0; rep < repeats; ++rep) {
      util::Timer timer;
      auto m = mapper.map_batch(read_seqs, aligner.batch_extender(),
                                trace_aligner.traced_extender());
      out.clear();
      for (std::size_t i = 0; i < reads.size(); ++i) {
        out.push_back(seedext::to_sam_record(mapper, reads[i], m[i], "chrT"));
      }
      double ms = timer.millis();
      ms_out = rep == 0 ? ms : std::min(ms_out, ms);
      mappings = std::move(m);
    }
    return out;
  };

  // Up to two attempts: a transient noisy-neighbor loss on a shared CI
  // runner gets one retry at more repeats; only a reproducible loss fails.
  double legacy_ms = 0.0;
  double batched_ms = 0.0;
  std::vector<seq::SamRecord> legacy_records;
  std::vector<seq::SamRecord> records;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int repeats = attempt == 0 ? 3 : 5;
    legacy_records = time_legacy(repeats, legacy_ms);
    records = time_batched(repeats, batched_ms);
    if (batched_ms < legacy_ms) break;
    std::printf("(wall-clock attempt %d inconclusive: %.1f ms vs %.1f ms — retrying)\n",
                attempt + 1, legacy_ms, batched_ms);
  }

  std::size_t mapped = 0;
  for (const auto& m : mappings) mapped += m.mapped;
  std::printf(
      "SAM pipeline (%zu reads, %zu mapped): legacy per-read recompute %.1f ms, batched "
      "CIGAR pipeline %.1f ms (%.2fx)\n",
      reads.size(), mapped, legacy_ms, batched_ms, legacy_ms / batched_ms);

  ok &= check(render(records) == render(legacy_records),
              "batched SAM byte-identical to the legacy per-read path");
  ok &= check(mapped > 0, "the workload actually mapped reads");
  ok &= check(batched_ms < legacy_ms,
              "batched CIGAR pipeline beats the per-read recompute on wall clock");

  return ok ? 0 : 1;
}
