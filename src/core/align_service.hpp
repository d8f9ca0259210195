// Multi-tenant alignment-as-a-service: continuous batching across client
// sessions over the existing BatchScheduler stack.
//
//   client A ──submit──▶ session queue ─┐
//   client B ──submit──▶ session queue ─┼─ batcher ──▶ BoundedQueue ──▶
//   client C ──submit──▶ session queue ─┘   (weighted  (in-flight cap)
//                                            fair merge)      │
//        poll ◀── per-session OrderedEmitter ◀── align workers ┘
//
// One streaming pipeline for one tenant or many: core::StreamAligner is a
// single session of a private service, and read mapping can be one tenant
// among many (seedext::ReadMapper::map_batch). A continuous batcher tops
// up full-size merged PairBatches from whichever sessions have queued work
// (strict priority classes, weighted round-robin within a class), runs them
// through the unchanged BatchScheduler phases (score pass + optional
// traceback) with per-batch autotuned scheduling (core::recommend_scheduler
// — the paper's workload-balance step), and demultiplexes results back to
// each session's in-order channel. Because every kernel and backend is
// bit-exact per pair regardless of batch composition, a session's results
// are bit-identical to running that session's pairs standalone through
// Aligner::align with the same AlignerOptions — the contract the
// `ctest -L service` conformance layer and bench/service_mux lock.
//
// Flow control: submit() blocks at the per-session admission cap, which
// bounds the session's queued (admitted, not yet batched) pairs, and the
// batcher blocks at the global in-flight cap, which bounds the merged
// batches waiting for an align worker. Delivered results wait in their
// session until polled and count against neither cap, so a client that
// submits without polling holds its results in the service (StreamAligner
// bounds its residency with tickets of its own). cancel() and stop()
// unblock every waiter — stop() closes the in-flight queue and wakes every
// condition variable — so no producer or consumer can deadlock across
// shutdown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/scheduler.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

using SessionId = std::uint64_t;

/// Per-tenant accounting and QoS metrics, snapshot under the service lock.
struct SessionStats {
  std::size_t submitted_pairs = 0;  ///< admitted through submit()
  std::size_t completed_pairs = 0;  ///< delivered to the session channel
  std::size_t cancelled_pairs = 0;  ///< queued work freed by cancel()
  std::size_t queued_pairs = 0;     ///< currently admitted, not yet batched
  std::size_t peak_queued_pairs = 0;
  std::size_t inflight_pairs = 0;   ///< batched, not yet delivered
  std::size_t batches = 0;  ///< merged batches this session contributed to
  /// Align time attributed to this tenant: each merged batch's makespan
  /// split by the tenants' in-band DP-cell shares of that batch.
  double align_ms = 0.0;
  std::size_t cells = 0;  ///< the tenant's in-band DP cells (the share basis)
  /// Traced runs only: each merged batch's AlignOutput::traceback_ms /
  /// traceback_cells — the time and cells its traces took beyond align_ms
  /// and cells (on the host: 0 ms and the replayed cells) — split by the
  /// same cell share as align_ms.
  double traceback_ms = 0.0;
  std::size_t traceback_cells = 0;
  /// submit-to-delivery latency quantiles over the latest 4,096 delivered
  /// pairs (util::percentile_nearest_rank — exact nearest rank over that
  /// window; a longer session keeps only its latest 4,096 samples).
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Simulated backends only: the tenant's cell-share slice of the merged
  /// batches' modeled time breakdowns.
  std::optional<gpusim::TimeBreakdown> time_breakdown;
  double weight = 1.0;
  int priority = 0;
  bool cancelled = false;
  bool finished = false;  ///< finish() called (no more submits)
};

/// Service-wide aggregates plus one SessionStats per ever-opened session.
/// Every figure below sums the merged batches' AlignOutputs as they are
/// delivered, so for a service with one session (StreamAligner::run) they
/// are that session's run totals.
struct ServiceStats {
  std::size_t sessions = 0;  ///< sessions opened over the service lifetime
  std::size_t batches = 0;   ///< merged batches dispatched
  std::size_t pairs = 0;     ///< pairs delivered across all sessions
  std::size_t cells = 0;     ///< backend-counted DP cells over all batches
  /// Sum of merged-batch makespans (same convention as StreamStats::align_ms:
  /// wall-clock on host backends, modeled ms on simulated devices).
  double align_ms = 0.0;
  double gcups = 0.0;  ///< cells / align_ms — the aggregate-throughput figure
  /// Traced runs only: the merged batches' AlignOutput::traceback_ms and
  /// traceback_cells, summed (align_ms + traceback_ms is the whole align
  /// time, cells + traceback_cells every cell computed).
  double traceback_ms = 0.0;
  std::size_t traceback_cells = 0;
  /// How the merged batches ran, serialized: shards and per-lane busy ms
  /// summed over batches (lane_ms has one slot per backend lane even before
  /// the first batch), the backend's lane weights, makespan_ms = align_ms,
  /// and busy_lanes / imbalance over those sums (finalize_balance).
  ScheduleReport schedule;
  /// Simulated backends only: every merged batch's modeled counters and
  /// time breakdown, merged (merge_modeled).
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
  /// Host wall-clock the align workers spent running + delivering batches;
  /// its mean per batch is the latency yardstick of bench/service_mux.
  double batch_wall_ms = 0.0;
  std::vector<std::pair<SessionId, SessionStats>> session_stats;
};

/// One in-order span of a session's results: results[i] is the session's
/// pair first_pair + i, exactly as submitted. Consecutive polls return
/// consecutive spans (first_pair resumes where the last span ended).
struct SessionResult {
  std::size_t first_pair = 0;
  std::vector<align::AlignmentResult> results;
  /// Traced runs only (AlignerOptions::traceback): one traced alignment
  /// per result, same indexing.
  std::vector<align::TracedAlignment> traced;
};

class AlignService {
 public:
  /// Resolves the backend(s) immediately (throws std::invalid_argument on
  /// unknown kernel/device names or bad AlignerOptions, like Aligner) and
  /// only then starts the batcher and align-worker threads.
  explicit AlignService(AlignerOptions options, ServiceOptions service = {});
  ~AlignService();  ///< stop()s and joins if the caller has not already
  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  const AlignerOptions& options() const { return options_; }
  const ServiceOptions& service_options() const { return service_; }

  /// Opens a session with the given QoS knobs. Throws std::invalid_argument
  /// unless opts.weight is finite and > 0, and std::runtime_error once the
  /// service is stopped.
  SessionId open(SessionOptions opts = {});

  /// Admits every pair of `pairs` into the session's queue, in order,
  /// blocking whenever the admission cap is reached (pairs drain as the
  /// batcher takes them). Each pair keeps its band (PairBatch::band_of).
  /// Returns false (admitting nothing further) once the session is
  /// cancelled or the service stopped; throws a failed worker's exception.
  /// Throws std::invalid_argument naming the session for an unknown id or a
  /// session already finish()ed; the service and its other sessions carry
  /// on.
  bool submit(SessionId id, seq::PairBatch pairs);

  /// Declares end-of-input: once the queue drains and every in-flight pair
  /// has been delivered, poll() reports exhaustion instead of blocking.
  void finish(SessionId id);

  /// Next in-order result span for the session: blocks until one is ready;
  /// std::nullopt means "no more results, ever" (finished and fully
  /// drained, cancelled, or service stopped). Rethrows a worker failure.
  std::optional<SessionResult> poll(SessionId id);

  /// Frees the session's queued work immediately (without stalling other
  /// tenants), unblocks its producers (submit → false) and consumers
  /// (poll → nullopt, buffered results discarded); results of pairs already
  /// in a merged batch are dropped at delivery. Idempotent.
  void cancel(SessionId id);

  /// One-shot convenience: open + submit + finish + drain, reassembling the
  /// session's spans into one AlignOutput in input order — bit-identical
  /// results (and traces) to Aligner::align on the same batch. time_ms and
  /// cells report this tenant's attributed share (see SessionStats). Throws
  /// std::runtime_error when the service is stopped before every result
  /// arrives, or was stopped already.
  AlignOutput align(const seq::PairBatch& batch, SessionOptions opts = {});

  SessionStats session_stats(SessionId id) const;
  ServiceStats stats() const;

  /// Stops the batcher and workers and joins them: producers unblock
  /// (submit → false), pollers get their drained/stopped answer, in-flight
  /// merged batches are abandoned. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Impl;

  AlignerOptions options_;
  ServiceOptions service_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace saloba::core
