// Configuration of the public saloba::Aligner facade.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "gpusim/multi_device.hpp"

namespace saloba::core {

enum class Backend {
  kCpu,        ///< SIMD batch engine on the host (real wall-clock time)
  kSimulated,  ///< a kernel on the simulated GPU (simulated kernel time)
};

/// Banded-extension defaults (Sec. VII-B) the Aligner / StreamAligner /
/// BatchScheduler stack materializes into batches. A batch's own per-pair
/// band channel (seq::PairBatch::bands, produced by
/// seedext::make_extension_jobs) always wins; this policy only applies to
/// batches that carry no band information of their own. Z-drop is not part
/// of the policy: it is a backend-construction knob (AlignerOptions::zdrop
/// → HostBackend), not something the scheduler applies per batch.
struct BandPolicy {
  /// Fixed band floor: only cells with |i - j| <= band are computed
  /// (0 = full table unless band_frac sets one).
  std::size_t band = 0;
  /// Query-length-proportional band: effective = max(band, band_frac·|q|).
  double band_frac = 0.0;

  bool banded() const { return band > 0 || band_frac > 0.0; }
  /// Effective band for a query of `query_len` bases (0 when not banded).
  std::size_t band_for(std::size_t query_len) const;

  bool operator==(const BandPolicy&) const = default;
};

/// Long-read routing policy (the LOGAN-style X-drop regime): pairs whose
/// longer sequence reaches `min_pair_bases` leave the block-DP/banded path
/// for the X-drop wavefront engine (align::xdrop_wavefront) — anti-diagonal
/// execution, X-drop termination, O(N+M) Myers-Miller traceback. Routed
/// pairs ignore band and z-drop: the long-read regime carries its own
/// pruning, and a 100kb pair has no meaningful |i-j| band anyway. The
/// default (0) disables routing, keeping every workload bit-identical to
/// the classic path.
struct LongReadPolicy {
  /// Route a pair when max(|ref|, |query|) >= this; 0 = never.
  std::size_t min_pair_bases = 0;
  /// X-drop threshold for routed pairs (<= 0 disables pruning — exact, but
  /// the forward sweep degenerates to O(N·M) cells on divergent pairs).
  align::Score xdrop = 400;

  bool enabled() const { return min_pair_bases > 0; }
  bool routes(std::size_t ref_len, std::size_t query_len) const {
    return enabled() && (ref_len >= min_pair_bases || query_len >= min_pair_bases);
  }
  /// Scheduler packing load of a routed pair: the wavefront cost model's
  /// forward-cell estimate (align::xdrop_cells_estimate under the default
  /// gap-extend) instead of the nominal n·m table that would absurdly
  /// overweight a long pair. A cost hint only, never a correctness input.
  std::size_t cells_estimate(std::size_t ref_len, std::size_t query_len) const;

  bool operator==(const LongReadPolicy&) const = default;
};

/// Materializes `policy` into the batch's per-pair band channel:
/// bands[i] = policy.band_for(|query i|). No-op when the policy is unbanded
/// or the batch already carries band information of its own (a seedext
/// extension batch's per-job bands always win over the Aligner-level
/// default). After this, every consumer — CPU backend, simulated kernels,
/// shard packing — sees one uniform channel.
void materialize_bands(seq::PairBatch& batch, const BandPolicy& policy);

struct AlignerOptions {
  Backend backend = Backend::kCpu;
  /// Kernel name for the simulated backend (see kernels::kernel_names()).
  std::string kernel = "saloba";
  /// Device preset (see gpusim::device_names()): "gtx1650", "rtx3090",
  /// "p100", "v100" — or a comma-separated list of presets (e.g.
  /// "gtx1650,rtx3090") for a heterogeneous backend with one lane per
  /// preset; the scheduler then partitions work by each lane's relative
  /// throughput (cost-aware weighted LPT). Backend::kCpu does not read it:
  /// the host backend always runs cpu_lanes lanes of the SIMD engine.
  std::string device = "rtx3090";
  align::ScoringScheme scoring;
  /// Paper-scale batch size used for footprint checks (0 = actual batch).
  std::size_t nominal_batch_pairs = 0;

  // --- Banded extension (Sec. VII-B) --------------------------------------
  /// Default band for batches without a per-pair band channel: only cells
  /// with |i - j| <= band are computed, out-of-band cells read H = 0,
  /// E/F = -inf (align::smith_waterman_banded semantics). 0 = full table.
  std::size_t band = 0;
  /// Query-proportional band: effective = max(band, band_frac · |query|).
  double band_frac = 0.0;
  /// Z-drop early termination for the CPU backend's banded sweep (<= 0
  /// disables). A pruning heuristic like BWA-MEM's: it can change results,
  /// so the simulated kernels — verified bit-exact against
  /// smith_waterman_banded — do not apply it. Takes effect at backend
  /// construction (make_backend → HostBackend), not through the scheduler.
  align::Score zdrop = 0;
  /// The band knobs above as a BandPolicy (what the scheduler materializes).
  BandPolicy band_policy() const { return BandPolicy{band, band_frac}; }

  // --- Long-read routing (X-drop wavefront engine) ------------------------
  /// Pairs whose longer sequence has at least this many bases are routed to
  /// the X-drop wavefront engine on every backend (see LongReadPolicy).
  /// 0 disables routing (default) — short-read workloads stay bit-identical
  /// to the classic path.
  std::size_t longread_threshold = 0;
  /// X-drop threshold for routed pairs (LongReadPolicy::xdrop).
  align::Score xdrop = 400;
  /// The long-read knobs above as the policy backends and the scheduler use.
  LongReadPolicy longread_policy() const { return LongReadPolicy{longread_threshold, xdrop}; }

  // --- Traceback phase (two-phase alignment) ------------------------------
  /// When true every align() becomes a two-phase run: the usual score pass
  /// (any backend/kernel, banded or not), then a scheduler-orchestrated
  /// traceback pass that produces one align::TracedAlignment — start
  /// coordinates + CIGAR — per pair (AlignOutput::traced, input order).
  /// Banded pairs trace inside |i - j| <= band, bit-consistently with the
  /// banded score pass; the CPU backend's zdrop is mirrored so endpoints
  /// agree there too.
  bool traceback = false;
  /// Rows between the traceback engines' row-state snapshots: the block
  /// height K the backward walk re-derives in, for both the per-pair engine
  /// and the traced SIMD cohorts (0 = ~sqrt of the reference length; see
  /// core::TracebackSettings::checkpoint_rows).
  std::size_t traceback_checkpoint_rows = 0;

  // --- Scheduler (host-side batching) ------------------------------------
  /// Simulated devices the scheduler spreads shards across (Sec. VII-C
  /// multi-GPU dispatch; simulated backend only — host lanes come from
  /// cpu_lanes). With 1 device and no shard cap, align() degenerates to the
  /// classic single-launch path. When `device` lists several presets the
  /// lane count comes from the list instead; `devices` must then be 1 (the
  /// default) or match the list length.
  int devices = 1;
  /// Shard size cap in pairs: 0 = one shard per device.
  std::size_t max_shard_pairs = 0;
  /// Chaining-phase shard cap in tasks (BatchScheduler::chain via
  /// batch_chainer()): 0 = one shard per lane.
  std::size_t max_shard_chain_tasks = 0;
  /// How pairs are packed into shards; kSorted is the paper's "approximate
  /// sorting" mitigation for inter-device imbalance.
  gpusim::SplitPolicy split_policy = gpusim::SplitPolicy::kSorted;
  /// Worker threads for async shard dispatch (0 = one per device lane).
  std::size_t scheduler_threads = 0;
  /// CPU backend lanes (>= 1): more than one splits the host into
  /// independent lanes the scheduler can overlap, each budgeted
  /// cpu_threads / cpu_lanes OpenMP threads so concurrent shards never
  /// oversubscribe the machine.
  int cpu_lanes = 1;
  /// Total host threads the CPU backend may use (0 = hardware concurrency).
  int cpu_threads = 0;
};

/// Per-tenant quality-of-service knobs for one core::AlignService session.
struct SessionOptions {
  /// Fair-share weight (> 0): under contention, the continuous batcher
  /// grants a session batch capacity proportional to its weight within its
  /// priority class (weighted round-robin over queued work).
  double weight = 1.0;
  /// Strict priority class: queued work of a higher class is always batched
  /// before any lower class; weights arbitrate only within one class.
  int priority = 0;
  /// Admission cap in queued (undispatched) pairs, 0 = the service-wide
  /// default (ServiceOptions::max_queued_pairs_per_session). submit()
  /// blocks — backpressure, not unbounded memory — while the session
  /// already holds this many pairs.
  std::size_t max_queued_pairs = 0;
};

/// Configuration of the core::AlignService continuous batcher (the
/// multi-tenant front end over the BatchScheduler stack).
struct ServiceOptions {
  /// Target merged-batch size in pairs: the batcher tops a shard up to this
  /// from whichever sessions have queued work before dispatching it. A
  /// partial batch is dispatched rather than held back — latency beats
  /// perfect packing when traffic trickles.
  std::size_t batch_pairs = 256;
  /// Default per-session admission cap in queued pairs (see
  /// SessionOptions::max_queued_pairs).
  std::size_t max_queued_pairs_per_session = 4096;
  /// Global in-flight cap: at most this many merged batches may sit between
  /// the batcher and the align workers. Together with the admission caps
  /// this bounds total resident pairs; the batcher blocks when it is hit.
  std::size_t max_inflight_batches = 4;
  /// Concurrent align workers. Above 1, each worker owns its own backend
  /// replica (built from the same AlignerOptions), exactly like
  /// StreamOptions::align_threads.
  std::size_t align_threads = 1;
  /// Derive SchedulerOptions per merged batch via core::recommend_scheduler
  /// (the StreamAligner default); false falls back to the AlignerOptions
  /// scheduler fields.
  bool autotune_schedule = true;
};

/// Splits an AlignerOptions::device value into its comma-separated preset
/// names, trimming surrounding whitespace. Throws std::invalid_argument on
/// an empty string or an empty list element ("gtx1650,,rtx3090"); names are
/// not resolved here — gpusim::device_by_name validates them.
std::vector<std::string> device_preset_list(const std::string& device);

}  // namespace saloba::core
