// The execution-backend layer between the Aligner facade / BatchScheduler
// and the alignment engines. A backend turns one (sub-)batch into results
// plus timing on one of its lanes — score-only (run), aligned and traced
// (run_traced) or chained (run_chaining); the scheduler decides how a user
// batch is split across lanes and merges the outputs (see
// core/scheduler.hpp for the layering diagram).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "align/alignment_result.hpp"
#include "core/options.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel_iface.hpp"
#include "seedext/chain_batch.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

/// What one phase run on one lane produced: the shard's items, its time and
/// work, and the simulated backend's modeled counters. The scheduler merges
/// one record per shard into one per batch (BatchScheduler::run, ::chain).
template <typename Item>
struct PhaseOutput {
  /// One item per shard input, in shard order.
  std::vector<Item> items;
  /// Wall-clock milliseconds for host backends; modeled milliseconds for
  /// the simulated backend.
  double time_ms = 0.0;
  /// The phase's work measure (see each AlignBackend entry point).
  std::size_t work = 0;
  /// Simulated backend only.
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
};

/// What one traced run on one lane produced (AlignBackend::run_traced): the
/// shard's score output and its trace output, one item per pair each, in
/// shard order. Together they account for the whole run: `score.time_ms +
/// trace.time_ms` is its time and `score.work + trace.work` every DP cell it
/// computed; each backend documents where it draws the line.
struct TracedRun {
  PhaseOutput<align::AlignmentResult> score;
  PhaseOutput<align::TracedAlignment> trace;
};

class AlignBackend {
 public:
  virtual ~AlignBackend() = default;

  virtual const std::string& name() const = 0;

  /// Independent execution lanes (simulated devices). The scheduler
  /// serializes runs on one lane; distinct lanes may run concurrently.
  virtual int lanes() const = 0;

  /// Relative throughput hint for `lane` — the scheduler's cost input for
  /// heterogeneous lanes (weighted LPT). Only ratios between lanes matter;
  /// homogeneous backends keep the default 1.0 everywhere, which makes the
  /// scheduler fall back to the classic unweighted packing bit-for-bit.
  virtual double lane_weight(int /*lane*/) const { return 1.0; }

  /// Runs the batch on `lane` (in [0, lanes())): one result per pair. `work`
  /// is the DP cells actually computed — in-band cells for banded pairs;
  /// 0 = the backend did not count (the scheduler then falls back to the
  /// batch's nominal banded cells).
  /// May throw kernels::KernelUnsupportedError or gpusim::DeviceOomError,
  /// faithfully to the modelled library.
  virtual PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) = 0;

  /// Aligns and traces the batch on `lane`. `score.items` are run()'s
  /// results and `score.work` its cells; `trace.items` hold one
  /// TracedAlignment per pair — start coordinates and CIGAR from a
  /// linear-memory checkpointed engine at the pair's band, `end` equal to
  /// the pair's result, the empty trace for a zero-score pair. `trace.work`
  /// is the cells the run computed beyond run()'s. Throws what run() throws.
  virtual TracedRun run_traced(const seq::PairBatch& batch, int lane) = 0;

  /// Chaining phase for shard `tasks` of a ChainBatch: the forward-only
  /// fixed-lookahead engine (seedext::chain_tasks_run) on `lane`, one chain
  /// list per task in the order of `tasks`, bit-identical to the sequential
  /// seedext::chain_seeds oracle regardless of backend, lane, or ISA. `work`
  /// is the push + settlement candidates the engine evaluated (structural,
  /// deterministic across ISAs and threads). Simulated lanes model the
  /// phase in the gpusim::Phase::kChaining slots.
  virtual PhaseOutput<std::vector<seedext::Chain>> run_chaining(
      const seedext::ChainBatch& batch, std::span<const std::size_t> tasks, int lane) = 0;
};

/// All of a backend's lane weights, in lane order (size == lanes()).
std::vector<double> lane_weights(const AlignBackend& backend);

/// The host backend: one lane running the inter-sequence SIMD ladder —
/// 8/16-bit saturating vector cohorts with an int32 rescue
/// (align::simd::align_batch; traced: align::simd::trace_batch),
/// bit-identical to the scalar oracles align::align_batch and
/// align::banded_traceback (scores, endpoints, cell counts; traces). A
/// traced run is one DP sweep per pair: its results come from the traced
/// forward sweep, so it runs no separate score pass. The lane parallelizes
/// across cohorts itself, so there are no host lanes for the scheduler to
/// overlap. Named "cpu".
class HostBackend final : public AlignBackend {
 public:
  /// Runs every phase on at most `threads` OpenMP threads (0 = the
  /// library's default team); per-pair bands come from the batch itself. An
  /// enabled `longread` policy routes qualifying pairs to the X-drop
  /// wavefront engine in both run() and run_traced() — routed pairs
  /// ignore their band (see core::LongReadPolicy). Throws
  /// std::invalid_argument naming AlignerOptions::scoring for an invalid
  /// `scoring`.
  explicit HostBackend(align::ScoringScheme scoring, int threads = 0,
                       LongReadPolicy longread = {});

  const std::string& name() const override { return name_; }
  int lanes() const override { return 1; }
  /// OpenMP thread cap of every run; 0 = the default team.
  int threads() const { return threads_; }
  PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) override;
  /// One wave, wall-clock timed: align::simd::trace_batch over the classic
  /// pairs and align::xdrop_wavefront_align over routed ones, each pair's
  /// result taken from its trace's `end`. `score` carries the whole wave's
  /// time and the forward sweeps' cells (run()'s count, bit for bit);
  /// `trace` carries time 0 and the replayed cells alone.
  TracedRun run_traced(const seq::PairBatch& batch, int lane) override;
  /// The forward-only chaining engine; its scalar/vector split is a per-task
  /// ISA dispatch inside seedext::chain_tasks_run.
  PhaseOutput<std::vector<seedext::Chain>> run_chaining(
      const seedext::ChainBatch& batch, std::span<const std::size_t> tasks,
      int lane) override;

 private:
  align::ScoringScheme scoring_;
  int threads_ = 0;
  LongReadPolicy longread_;
  std::string name_ = "cpu";
};

/// A reproduced GPU kernel on N simulated devices. Each lane owns a
/// gpusim::Device; the kernel object is stateless per run and shared.
/// `options.device` may list several presets ("gtx1650,rtx3090") for a
/// heterogeneous backend: one lane per preset, each lane weighted by the
/// cost model's peak issue rate relative to the slowest preset so the
/// scheduler can partition work cost-aware.
class SimulatedGpuBackend final : public AlignBackend {
 public:
  /// Resolves `options.kernel` and `options.device` through the registries;
  /// throws std::invalid_argument (listing valid names) on unknown names or
  /// a malformed preset list, and (naming the field) on an invalid
  /// `scoring`, `devices < 1`, or a preset list whose length conflicts with
  /// `devices`.
  explicit SimulatedGpuBackend(const AlignerOptions& options);

  const std::string& name() const override { return name_; }
  int lanes() const override { return static_cast<int>(devices_.size()); }
  /// gpusim::peak_issue_rate of the lane's device / the slowest lane's
  /// (>= 1.0; uniform presets yield exactly 1.0 everywhere).
  double lane_weight(int lane) const override;
  PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) override;
  /// run() — the kernel pass and its modeled time — followed by the
  /// functional trace phase on the host: align::banded_traceback for every
  /// pair with a positive result (routed long-read pairs:
  /// align::xdrop_wavefront_align), endpoints matching the kernels
  /// bit-for-bit. `trace` carries that phase's forward plus replay cells
  /// and its modeled time and traffic on the lane's device
  /// (gpusim::estimate_phase_time, Phase::kTraceback; routed pairs charged
  /// to kXdrop).
  TracedRun run_traced(const seq::PairBatch& batch, int lane) override;
  /// Functionally runs the forward-only engine on the host (bit-identical to
  /// every other backend), then models the phase's time and traffic on the
  /// lane's device (gpusim::estimate_phase_time, Phase::kChaining).
  PhaseOutput<std::vector<seedext::Chain>> run_chaining(
      const seedext::ChainBatch& batch, std::span<const std::size_t> tasks,
      int lane) override;

  gpusim::Device& device(int lane) { return *devices_[static_cast<std::size_t>(lane)]; }

 private:
  align::ScoringScheme scoring_;
  kernels::KernelPtr kernel_;
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<double> weights_;
  LongReadPolicy longread_;
  std::string name_;
};

/// Builds the backend `options` asks for: a SimulatedGpuBackend, or under
/// Backend::kCpu a HostBackend on the default team (options.device is not
/// read there).
std::unique_ptr<AlignBackend> make_backend(const AlignerOptions& options);

/// Backend replicas for `workers` concurrent align threads, one each, so no
/// lane is ever shared across threads. Host replicas split the host's
/// threads between them, max(1, util::max_parallel_threads() / workers)
/// each, so concurrent workers never oversubscribe the machine. Empty for a
/// single worker, which runs on the primary backend.
std::vector<std::unique_ptr<AlignBackend>> make_worker_replicas(const AlignerOptions& options,
                                                                std::size_t workers);

}  // namespace saloba::core
