// Host-side batch scheduling: the layer between the Aligner facade and the
// execution backends.
//
//   Aligner → BatchScheduler → AlignBackend → kernels → gpusim
//
// The scheduler shards a PairBatch into length-bucketed sub-batches
// (sorted-by-area packing — the paper's workload-balance goal applied at
// host granularity), places them on the backend's lanes (N simulated
// devices for the multi-GPU path of Sec. VII-C), and merges results back in
// input order with aggregated stats. Every wave (score-only, traced,
// chaining) goes through one shard runner: shards that all sit on one lane
// run in shard order on the calling thread, and two or more busy lanes get
// one std::async task each. A traced run is one wave: each shard's
// AlignBackend::run_traced returns its results and its traces together.
// With one lane and no shard cap that is a single
// backend run on the caller's batch — bit-identical to the classic path.
// A scheduler holds only its backend pointer and options, so it is cheap to
// build per batch.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "core/backend.hpp"
#include "gpusim/multi_device.hpp"

namespace saloba::core {

struct SchedulerOptions {
  /// Shard size cap in pairs: 0 = one shard per backend lane.
  std::size_t max_shard_pairs = 0;
  /// Packing policy (kSorted = the paper's "approximate sorting").
  gpusim::SplitPolicy policy = gpusim::SplitPolicy::kSorted;
  /// Long-read routing (AlignerOptions longread_threshold/xdrop). Routing
  /// itself happens inside the backends — every lane applies the same
  /// policy, so results do not depend on shard placement. The scheduler
  /// only uses the policy to *price* routed pairs for shard packing: a
  /// routed pair costs LongReadPolicy::cells_estimate (the wavefront's
  /// score-bounded window), not the absurd nominal n·m table.
  LongReadPolicy longread;
  /// Traced alignment (AlignerOptions::traceback): every shard runs the
  /// backend's run_traced instead of run, and one TracedAlignment per pair
  /// is merged back in input order (AlignOutput::traced) with the results.
  bool traceback = false;
};

/// How a batch was executed: shard count and per-lane time accounting.
struct ScheduleReport {
  std::size_t shards = 1;
  int lanes = 1;
  /// Per-lane busy time (sum of that lane's shard times); size == lanes.
  std::vector<double> lane_ms;
  /// Relative lane throughputs the dispatch used (backend lane_weight, in
  /// lane order); empty or uniform = classic unweighted packing.
  std::vector<double> lane_weights;
  double makespan_ms = 0.0;  ///< max over lanes — the reported wall time
  /// Weighted imbalance: makespan / mean lane time over ALL lanes (busy or
  /// idle), 1 = every lane finished together. Lane times already embody the
  /// lane weights (a fast lane spends fewer ms on the same cells), so the
  /// time-domain mean needs no extra weighting — but it must count idle
  /// lanes: averaging only busy ones would report a perfect 1.0 for a run
  /// that stranded all work on one lane of four.
  double imbalance = 0.0;
  int busy_lanes = 0;  ///< lanes with lane_ms > 0
};

/// Folds one run's optional simulated counters and time breakdown
/// (`kernel_stats` / `time_breakdown`, present on simulated backends only)
/// into an aggregate's — the one merge rule for the scheduler's shard and
/// phase merges and AlignService's run totals (align_service.cpp).
template <typename Into, typename From>
void merge_modeled(Into& into, const From& from) {
  if (from.kernel_stats) {
    if (!into.kernel_stats) into.kernel_stats.emplace();
    into.kernel_stats->merge(*from.kernel_stats);
  }
  if (from.time_breakdown) {
    if (!into.time_breakdown) into.time_breakdown.emplace();
    into.time_breakdown->merge(*from.time_breakdown);
  }
}

/// Derives `busy_lanes` and `imbalance` from an already-filled `lane_ms` /
/// `makespan_ms` (all-lane normalization, see ScheduleReport::imbalance) —
/// shared by the scheduler's phase runner and AlignService's batch-serialized
/// totals (ServiceStats::schedule), so the two cannot drift apart again.
void finalize_balance(ScheduleReport& report);

/// One aligned batch. On every backend the run's time and cells split
/// into a score part and a traceback part that add up: `time_ms +
/// traceback_ms` is the run's whole time and `cells + traceback_cells`
/// every DP cell it computed. `results` and `cells` are bit-identical to a
/// score-only run's whether or not the batch was traced.
struct AlignOutput {
  /// One result per input pair, in input order regardless of sharding.
  std::vector<align::AlignmentResult> results;
  /// Wall-clock milliseconds for the CPU backend; simulated kernel
  /// milliseconds (makespan across devices) for the simulated backend. A
  /// traced host run is one wave, all of it here.
  double time_ms = 0.0;
  /// DP cells of the score sweep (`work` of the score outputs, summed over
  /// shards): in-band cells for banded pairs; Σ |q|·|r| for plain
  /// full-table runs — the numerator of `gcups`. A traced host run counts
  /// its forward sweeps here, the cells a score-only run counts.
  std::size_t cells = 0;
  double gcups = 0.0;  ///< giga cell-updates per second at `time_ms`
  /// Simulated backend only; aggregated over every shard. The breakdown is
  /// a component-wise sum (total device time, internally consistent with
  /// its own total_ms); under multiple lanes that exceeds the concurrent
  /// wall time reported in `time_ms`.
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
  ScheduleReport schedule;

  // --- Traced runs only (SchedulerOptions::traceback) ----------------------
  /// One traced alignment (start coords + CIGAR) per input pair, in input
  /// order regardless of sharding; empty for score-only runs. Endpoints
  /// equal `results` under the canonical improves() tie-break.
  std::vector<align::TracedAlignment> traced;
  /// Time the traces took beyond `time_ms`, as a makespan across lanes: 0
  /// on the host, whose one wave is all in `time_ms`; the modeled
  /// traceback phase on simulated devices, which model it apart from the
  /// kernel pass.
  double traceback_ms = 0.0;
  /// Cells the traces computed beyond `cells`: on the host the replayed
  /// cells alone (align::simd::TraceStats::replay_cells plus the X-drop
  /// WavefrontStats::traceback_cells); on simulated devices the functional
  /// trace phase's engine cells, forward sweep plus replay.
  std::size_t traceback_cells = 0;
};

/// Places one span of an ordered result stream into `out`, whose `results`
/// already span the whole input: the results of pairs [first, first +
/// results.size()) and, when the span carries any, their traces (moved out
/// of `traced`; `out.traced` is sized on the first traced span).
void place_span(AlignOutput& out, std::size_t first,
                std::span<const align::AlignmentResult> results,
                std::span<align::TracedAlignment> traced);

/// One phase merged over every shard of a batch (BatchScheduler's phase
/// runner): items in input order, `work` summed and modeled counters merged
/// in shard-id order, `time_ms` the makespan across lanes, plus how the
/// shards ran.
template <typename Item>
struct ScheduledPhase : PhaseOutput<Item> {
  ScheduleReport schedule;
};

/// What a scheduler-orchestrated chaining phase produced
/// (BatchScheduler::chain): chains per batch task id — bit-identical to
/// running the sequential seedext::chain_seeds oracle on each task,
/// regardless of sharding, lane placement, thread timing, or ISA. `work` is
/// the push + settlement candidates evaluated; `time_ms` is wall-clock for
/// host backends, modeled chaining time
/// (TimeBreakdown::phase_ms[Phase::kChaining]) for simulated devices.
using ChainPhaseOutput = ScheduledPhase<std::vector<seedext::Chain>>;

class BatchScheduler {
 public:
  /// `backend` must outlive the scheduler.
  explicit BatchScheduler(AlignBackend* backend, SchedulerOptions options = {});

  const SchedulerOptions& options() const { return options_; }

  /// Aligns every pair of the batch across the backend's lanes, each pair
  /// at its own band (seq::PairBatch::band_of). Exceptions from shard runs
  /// (kernels::KernelUnsupportedError, gpusim::DeviceOomError) propagate
  /// after every lane has settled; the first failure in lane order wins.
  AlignOutput run(const seq::PairBatch& batch);

  /// Chaining phase: shards the ChainBatch's tasks into one shard per
  /// backend lane by weighted LPT on anchor work (seedext::make_chain_shards,
  /// the extension shards' packing discipline), runs them through the same
  /// phase runner, and merges chains back by task id. One lane degenerates
  /// to a single run_chaining call on the calling thread.
  ChainPhaseOutput chain(const seedext::ChainBatch& batch);

 private:
  /// One shard of a phase wave: its lane and the input position of each of
  /// its items. Empty positions mark the in-place shard, whose items are
  /// the whole input in order.
  struct PhaseShard {
    int lane = 0;
    std::span<const std::size_t> positions;
  };

  /// The phase runner: `run_shard(s)` for every shard, each lane's shards
  /// in shard-id order — on the calling thread when at most one lane is
  /// busy, else on one std::async task per busy lane — then merged
  /// (merge_phase).
  template <typename Item, typename RunShard>
  ScheduledPhase<Item> run_phase(std::size_t inputs, const std::vector<PhaseShard>& shards,
                                 RunShard&& run_shard);

  /// One phase's shard outputs (one per shard) merged in shard-id order:
  /// items scattered to their positions among the phase's `inputs`, work
  /// summed, modeled counters merged, time the makespan across lanes.
  template <typename Item>
  ScheduledPhase<Item> merge_phase(std::size_t inputs, const std::vector<PhaseShard>& shards,
                                   std::vector<PhaseOutput<Item>> outputs) const;

  AlignBackend* backend_;
  SchedulerOptions options_;
};

}  // namespace saloba::core
