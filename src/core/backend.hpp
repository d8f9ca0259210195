// The execution-backend layer between the Aligner facade / BatchScheduler
// and the alignment engines. A backend turns one (sub-)batch into results
// plus timing on one of its lanes; the scheduler decides how a user batch
// is split across lanes and merges the outputs (see core/scheduler.hpp for
// the layering diagram).
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

/// Engine knobs the scheduler threads into run_traceback.
struct TracebackSettings {
  /// Rows between row-state snapshots — the block height K both traceback
  /// engines re-derive in: align::banded_traceback per pair, and the traced
  /// SIMD cohorts of align::simd::trace_batch (0 = ~sqrt of the rows: the
  /// pair's |ref|, or the cohort's longest ref).
  std::size_t checkpoint_rows = 0;

  bool operator==(const TracebackSettings&) const = default;
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
  /// is the DP cells actually computed — in-band cells for banded pairs,
  /// minus any rows a CPU-side zdrop pruned; 0 = the backend did not count
  /// (the scheduler then falls back to the batch's nominal banded cells).
  /// May throw kernels::KernelUnsupportedError or gpusim::DeviceOomError,
  /// faithfully to the modelled library.
  virtual PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) = 0;

  /// Traceback phase for a batch whose score pass produced `results`
  /// (size == batch.size()): one TracedAlignment per pair through a
  /// linear-memory checkpointed engine — align::banded_traceback per pair,
  /// or on host lanes the traced cohort pass align::simd::trace_batch, whose
  /// traces are identical — honoring the batch's per-pair bands.
  /// Pairs with a zero score-pass result are skipped (their trace is empty
  /// by construction). Endpoints reproduce `results` for any score pass
  /// that is bit-identical to the CPU reference. `work` is the engine's own
  /// forward + replay cells, so it differs between backends. Simulated
  /// lanes model the phase in the gpusim::Phase::kTraceback slots (routed
  /// long-read pairs in kXdrop).
  virtual PhaseOutput<align::TracedAlignment> run_traceback(
      const seq::PairBatch& batch, std::span<const align::AlignmentResult> results,
      const TracebackSettings& settings, int lane) = 0;

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

/// The host backend: `lanes` identical lanes, each running the
/// inter-sequence SIMD ladder — 8/16-bit saturating vector cohorts with an
/// int32 rescue (align::simd::align_batch; traced: align::simd::trace_batch),
/// bit-identical to the scalar oracles align::align_batch and
/// align::banded_traceback (scores, endpoints, cell counts; traces). Lanes
/// split one thread budget so overlapping shard runs never oversubscribe the
/// machine and wall-clock timing stays honest. Identical lanes keep the
/// default lane weight of 1.0, so the scheduler packs them unweighted. Named
/// "cpu".
class HostBackend final : public AlignBackend {
 public:
  /// `lanes` (>= 1) lanes. Several lanes are each budgeted
  /// `threads_total / lanes` OpenMP threads (threads_total 0 = hardware
  /// concurrency, at least one per lane); a single lane keeps the library's
  /// default team unless `threads_total > 0`. `zdrop > 0` applies z-drop row
  /// pruning to every pair (the rule of align::BandedParams::zdrop); per-pair
  /// bands come from the batch itself (the scheduler materializes
  /// AlignerOptions band knobs into it). An enabled `longread` policy routes
  /// qualifying pairs to the X-drop wavefront engine in both run() and
  /// run_traceback() — routed pairs ignore band and zdrop (see
  /// core::LongReadPolicy).
  explicit HostBackend(align::ScoringScheme scoring, int lanes = 1, int threads_total = 0,
                       align::Score zdrop = 0, LongReadPolicy longread = {});

  const std::string& name() const override { return name_; }
  int lanes() const override { return lanes_; }
  /// OpenMP thread cap per lane run; 0 = the default team (single lane).
  int threads_per_lane() const { return threads_per_lane_; }
  PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) override;
  /// Engine params mirror the score pass (per-pair band + this backend's
  /// zdrop), so traced endpoints are bit-identical to run()'s results. Whole
  /// cohorts trace at once through align::simd::trace_batch.
  PhaseOutput<align::TracedAlignment> run_traceback(
      const seq::PairBatch& batch, std::span<const align::AlignmentResult> results,
      const TracebackSettings& settings, int lane) override;
  /// The forward-only chaining engine; its scalar/vector split is a per-task
  /// ISA dispatch inside seedext::chain_tasks_run.
  PhaseOutput<std::vector<seedext::Chain>> run_chaining(
      const seedext::ChainBatch& batch, std::span<const std::size_t> tasks,
      int lane) override;

 private:
  align::ScoringScheme scoring_;
  int lanes_ = 1;
  int threads_per_lane_ = 0;
  align::Score zdrop_ = 0;
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
  /// a malformed preset list.
  explicit SimulatedGpuBackend(const AlignerOptions& options);

  const std::string& name() const override { return name_; }
  int lanes() const override { return static_cast<int>(devices_.size()); }
  /// gpusim::peak_issue_rate of the lane's device / the slowest lane's
  /// (>= 1.0; uniform presets yield exactly 1.0 everywhere).
  double lane_weight(int lane) const override;
  PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) override;
  /// Functionally runs the engine on the host (kernels apply no zdrop, so
  /// endpoints match the kernels bit-for-bit), then models the phase's time
  /// and memory traffic on the lane's device (gpusim::estimate_phase_time,
  /// Phase::kTraceback; routed long-read pairs are charged to kXdrop).
  PhaseOutput<align::TracedAlignment> run_traceback(
      const seq::PairBatch& batch, std::span<const align::AlignmentResult> results,
      const TracebackSettings& settings, int lane) override;
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
/// Backend::kCpu a HostBackend of `cpu_lanes` lanes (options.device is not
/// read there).
std::unique_ptr<AlignBackend> make_backend(const AlignerOptions& options);

/// Backend replicas for `workers` concurrent align threads, one each, so no
/// lane is ever shared across threads; host replicas split the host thread
/// budget between them (HostBackend's no-oversubscription promise, one level
/// up). Empty for a single worker, which runs on the primary backend.
std::vector<std::unique_ptr<AlignBackend>> make_worker_replicas(const AlignerOptions& options,
                                                                std::size_t workers);

}  // namespace saloba::core
