// saloba::core::Aligner — the library's front door.
//
//   saloba::core::AlignerOptions opts;           // CPU backend by default
//   saloba::core::Aligner aligner(opts);
//   auto out = aligner.align(batch);             // results + timing
//
// Switching `opts.backend` to kSimulated runs the same batch through any of
// the reproduced GPU kernels on a simulated device and reports simulated
// kernel time plus the execution counters behind it. `opts.traceback` adds
// one traced alignment per pair (AlignOutput::traced) to every run. Setting `opts.devices`
// above 1 makes the BatchScheduler pack the batch into one sub-batch per
// device (`opts.split_policy`) and run the devices concurrently, one host
// task per busy device (Sec. VII-C), merging results back in input order.
// Every align() call is routed
//
//   Aligner → BatchScheduler → AlignBackend → kernels → gpusim
//
// (see ARCHITECTURE.md).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/alignment_result.hpp"
#include "core/backend.hpp"
#include "core/options.hpp"
#include "core/scheduler.hpp"
#include "seedext/pipeline.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

class Aligner {
 public:
  /// Builds the backend `options` asks for. Throws std::invalid_argument on
  /// unknown kernel/device names and, naming the field, on an invalid
  /// `scoring`, `devices < 1` or a device list that conflicts with `devices`.
  explicit Aligner(AlignerOptions options);
  ~Aligner();
  Aligner(Aligner&&) noexcept;
  Aligner& operator=(Aligner&&) noexcept;

  const AlignerOptions& options() const { return options_; }
  const AlignBackend& backend() const { return *backend_; }

  /// Aligns every (query, reference) pair in the batch through the
  /// scheduler. Simulated backend may throw kernels::KernelUnsupportedError
  /// or gpusim::DeviceOomError, faithfully to the modelled library.
  AlignOutput align(const seq::PairBatch& batch);

  /// Adapter for pipeline stages (seedext::BatchExtender-compatible):
  /// aligns batches through this aligner's scheduler and returns just the
  /// per-pair results. The aligner must outlive the returned function.
  /// Note: on a traceback-enabled aligner every batch runs traced and the
  /// traces are discarded — the block replays on the host, the whole
  /// functional trace phase on simulated devices — so pipelines that only
  /// need traces for a later stage should keep a separate score-only
  /// aligner for extension.
  std::function<std::vector<align::AlignmentResult>(const seq::PairBatch&)> batch_extender();

  /// Traced adapter (seedext::TracedBatchExtender-compatible): runs the
  /// batch traced — on the host one DP sweep per pair, its results taken
  /// from the traces — and returns one TracedAlignment per pair, `end`
  /// holding the pair's result. Requires AlignerOptions::traceback = true
  /// (throws std::invalid_argument otherwise); the aligner must outlive the
  /// returned function.
  std::function<std::vector<align::TracedAlignment>(const seq::PairBatch&)> traced_extender();

  /// Chaining-phase adapter (seedext::BatchChainer-compatible, for
  /// ReadMapper::set_batch_chainer): runs ChainBatches through the
  /// scheduler's chaining phase — weighted-LPT task shards across the
  /// backend's lanes, modeled chaining time on simulated devices — and
  /// returns the per-task chains plus phase accounting. Bit-identical to
  /// the in-process default; the aligner must outlive the returned function.
  seedext::BatchChainer batch_chainer();

  /// Resolves a device preset by name (see gpusim::device_by_name); throws
  /// std::invalid_argument listing the valid presets on unknown names.
  static gpusim::DeviceSpec device_by_name(const std::string& name);

 private:
  AlignerOptions options_;
  std::unique_ptr<AlignBackend> backend_;
  std::unique_ptr<BatchScheduler> scheduler_;
};

}  // namespace saloba::core
