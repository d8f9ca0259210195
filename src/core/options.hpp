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

/// Long-read routing policy (the LOGAN-style X-drop regime): pairs whose
/// longer sequence reaches `min_pair_bases` leave the block-DP/banded path
/// for the X-drop wavefront engine (align::xdrop_wavefront) — anti-diagonal
/// execution, X-drop termination, O(N+M) checkpointed traceback walked by
/// the same align::TraceWalk as every other trace engine. Routed
/// pairs ignore their band: the long-read regime carries its own pruning,
/// and a 100kb pair has no meaningful |i-j| band anyway. The default (0)
/// disables routing, keeping every workload bit-identical to the classic
/// path.
struct LongReadPolicy {
  /// Route a pair when max(|ref|, |query|) >= this; 0 = never.
  std::size_t min_pair_bases = 0;
  /// X-drop threshold for routed pairs (<= 0 disables pruning — exact, but
  /// the forward sweep degenerates to O(N·M) cells on divergent pairs, and
  /// the traceback's checkpoints to the order of N·M bytes).
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
};

struct AlignerOptions {
  Backend backend = Backend::kCpu;
  /// Kernel name for the simulated backend (see kernels::kernel_names()).
  std::string kernel = "saloba";
  /// Device preset (see gpusim::device_names()): "gtx1650", "rtx3090",
  /// "p100", "v100" — or a comma-separated list of presets (e.g.
  /// "gtx1650,rtx3090") for a heterogeneous backend with one lane per
  /// preset; the scheduler then partitions work by each lane's relative
  /// throughput (cost-aware weighted LPT). Backend::kCpu does not read it:
  /// the host backend is always one lane of the SIMD engine.
  std::string device = "rtx3090";
  /// Checked when the backend is built: every front end throws
  /// std::invalid_argument naming this field if it is not valid(). Bands
  /// are not an option: they ride on the batch (seq::PairBatch::band_of,
  /// Sec. VII-B).
  align::ScoringScheme scoring;

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

  // --- Traced alignment ----------------------------------------------------
  /// When true every align() is a traced run (AlignBackend::run_traced):
  /// besides the results, one align::TracedAlignment — start coordinates +
  /// CIGAR — per pair (AlignOutput::traced, input order). The host backend
  /// aligns and traces each pair in one DP sweep; the simulated backend
  /// runs its kernel pass (any kernel, banded or not), then a modeled trace
  /// phase. Banded pairs trace inside |i - j| <= band, bit-consistently
  /// with the banded score pass.
  bool traceback = false;

  // --- Scheduler (host-side batching) ------------------------------------
  /// Simulated devices the scheduler spreads shards across (Sec. VII-C
  /// multi-GPU dispatch; simulated backend only — the host backend is one
  /// lane). Aligner::align cuts one shard per device, so with 1 device it
  /// degenerates to the classic single-launch path. When `device` lists
  /// several presets the lane count comes from the list instead; `devices`
  /// must then be 1 (the default) or match the list length. Either
  /// violation throws std::invalid_argument when the backend is built.
  int devices = 1;
  /// How pairs are packed into shards; kSorted is the paper's "approximate
  /// sorting" mitigation for inter-device imbalance.
  gpusim::SplitPolicy split_policy = gpusim::SplitPolicy::kSorted;
};

/// Per-tenant quality-of-service knobs for one core::AlignService session.
struct SessionOptions {
  /// Fair-share weight, finite and > 0 (AlignService::open throws
  /// std::invalid_argument otherwise): under contention, the continuous
  /// batcher grants a session batch capacity proportional to its weight
  /// within its priority class (weighted round-robin over queued work).
  double weight = 1.0;
  /// Strict priority class: queued work of a higher class is always batched
  /// before any lower class; weights arbitrate only within one class.
  int priority = 0;
  /// Admission cap in queued (undispatched) pairs, 0 = the service-wide
  /// default (ServiceOptions::max_queued_pairs_per_session). submit()
  /// blocks while the session already has this many pairs queued; pairs
  /// in flight or delivered and not yet polled do not count.
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
  /// the batcher and the align workers; the batcher blocks when it is hit.
  /// With the admission caps this bounds the pairs waiting to be aligned —
  /// not the delivered results, which wait in their session until polled.
  std::size_t max_inflight_batches = 4;
  /// Concurrent align workers. Above 1, each worker owns its own backend
  /// replica (built from the same AlignerOptions), so simulated lanes are
  /// never shared across threads and host replicas split the host's threads
  /// (core::make_worker_replicas).
  std::size_t align_threads = 1;
};

/// Splits an AlignerOptions::device value into its comma-separated preset
/// names, trimming surrounding whitespace. Throws std::invalid_argument on
/// an empty string or an empty list element ("gtx1650,,rtx3090"); names are
/// not resolved here — gpusim::device_by_name validates them.
std::vector<std::string> device_preset_list(const std::string& device);

}  // namespace saloba::core
