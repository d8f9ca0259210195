// End-to-end seed-and-extend read mapping — the BWA-MEM stand-in that feeds
// the extension kernels (paper Sec. V-D). Seeding (k-mer index, monolithic
// or reference-sharded) → chaining → extension-job extraction →
// local-alignment extension → mapping → optional traceback of every mapped
// window for SAM.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seedext/chain_batch.hpp"
#include "seedext/chain_engine.hpp"
#include "seedext/chaining.hpp"
#include "seedext/extension_jobs.hpp"
#include "seedext/kmer_index.hpp"
#include "seedext/seeding.hpp"
#include "seedext/shared_index.hpp"
#include "seq/sequence.hpp"

namespace saloba::seq {
class SequenceChunkReader;  // seq/chunk_reader.hpp
}  // namespace saloba::seq

namespace saloba::seedext {

struct MapperParams {
  int k = 16;  ///< k-mer length of the seeding index, in [KmerIndex::kMinK, kMaxK]

  // --- Shared-index routing (seedext::SharedIndex) -------------------------
  /// Non-empty: the reference index is acquired through the shared-index
  /// registry as an mmap of this file (built and saved on first use,
  /// validate-and-adopt afterwards) instead of rebuilt in memory. Every
  /// mapper/tenant naming the same path and k aliases one mapping.
  /// With index_shards > 1 this becomes the per-shard path prefix
  /// (IndexShardingOptions::path_prefix).
  std::string index_path;
  /// > 1: k-mer seeding goes through a reference-sharded index — the genome
  /// is cut into this many overlapping windows with one sub-index each,
  /// every one probed per lookup. Seeds (and therefore mappings and SAM
  /// bytes) are bit-identical to the monolithic index.
  std::size_t index_shards = 1;

  SeedingParams seeding;
  ChainingParams chaining;
  JobParams jobs;
  align::ScoringScheme scoring;
};

struct ReadMapping {
  bool mapped = false;
  std::size_t ref_pos = 0;      ///< inferred 0-based genome start of the read
  bool reverse_strand = false;
  align::Score score = 0;       ///< seed matches + extension scores
  /// Traced alignment of the oriented read against its mapped genome window
  /// (window coordinates; seedext::mapped_window recovers the genome
  /// offset), filled by map_batch/map_stream's traceback stage. It is the
  /// only source of a SAM record's CIGAR: to_sam_record refuses a mapped
  /// read without it.
  align::TracedAlignment traced;
  /// `traced` is populated. False for every mapping of a score-only mapper
  /// (null TracedBatchExtender) and of the per-read map().
  bool has_traceback = false;
};

/// Aggregates of map_batch and map_stream calls. map_batch adds its reads,
/// mappings and chaining-stage counters to a caller's MapStats; map_stream
/// sums them over its chunks and sets `chunks` and `wall_ms`.
struct MapStats {
  std::size_t reads = 0;
  std::size_t mapped = 0;
  std::size_t chunks = 0;  ///< chunks streamed (map_stream only)
  double wall_ms = 0.0;    ///< whole-stream wall time (map_stream only)
  /// Chaining-stage time (batched phase makespan when a BatchChainer is
  /// injected, in-process engine wall time otherwise); kept apart from
  /// wall_ms the way AlignOutput splits score/traceback.
  double chaining_ms = 0.0;
  std::size_t chain_tasks = 0;    ///< strand tasks chained (2 per read)
  std::size_t chain_anchors = 0;  ///< seeds across those tasks
  std::size_t chain_updates = 0;  ///< push + settlement candidates evaluated
};

/// A batch extension engine: aligns every (query, reference) pair of a
/// PairBatch, output order matching input order. core::Aligner's
/// batch_extender() adapts the scheduler-backed public path (CPU or any
/// simulated kernel, sharded across devices) to this signature, so the
/// Sec. V-D pipeline exercises the same code as the benches.
using BatchExtender =
    std::function<std::vector<align::AlignmentResult>(const seq::PairBatch&)>;

/// A batched traced engine: one TracedAlignment — the pair's result in
/// `end`, plus its start and CIGAR — per pair of a PairBatch, in input
/// order.
/// core::Aligner::traced_extender() (AlignerOptions::traceback = true)
/// adapts the scheduler-backed public path to this signature. A null
/// TracedBatchExtender means the mapper runs no traceback stage: mappings
/// keep has_traceback == false, which suits score-only mapping; writing
/// SAM needs the traced stage.
using TracedBatchExtender =
    std::function<std::vector<align::TracedAlignment>(const seq::PairBatch&)>;

/// What a batched chaining engine returns: one chain list per ChainBatch
/// task id, plus the phase's time/counter accounting.
struct ChainStageResult {
  std::vector<std::vector<Chain>> chains;
  double chaining_ms = 0.0;
  std::size_t anchors = 0;
  std::size_t updates = 0;  ///< push + settlement candidates evaluated
};

/// A batched chaining engine: chains every task of a ChainBatch.
/// core::Aligner::batch_chainer() adapts the scheduler-orchestrated phase
/// (BatchScheduler::chain — weighted-LPT task shards across backend lanes,
/// the SIMD forward-only kernel per task) to this signature; a null chainer
/// makes the mapper run the in-process engine host-parallel. Either path is
/// bit-identical to sequential chain_seeds per task.
using BatchChainer = std::function<ChainStageResult(const ChainBatch&)>;

class ReadMapper {
 public:
  /// Builds (or acquires) the reference index. Throws std::invalid_argument,
  /// naming the field, before any index is built when the genome is empty,
  /// k is outside [KmerIndex::kMinK, kMaxK], seeding.stride is < 1, a lane
  /// weight is not finite and > 0, or the scoring scheme is not valid.
  ReadMapper(std::vector<seq::BaseCode> genome, MapperParams params);
  ~ReadMapper();
  ReadMapper(ReadMapper&&) noexcept;

  const std::vector<seq::BaseCode>& genome() const { return genome_; }
  const MapperParams& params() const { return params_; }

  /// Maps one read (tries both strands, extends the best chain's jobs with
  /// the scalar oracle align::align_batch) — the reference every batched
  /// path must reproduce.
  ReadMapping map(std::span<const seq::BaseCode> read) const;

  /// Routes the chaining stage of every batched mapping call through
  /// `chainer` (e.g. core::Aligner::batch_chainer()) instead of the
  /// in-process engine. Mappings are unchanged — every BatchChainer is
  /// bit-identical to the sequential oracle — only the execution (lanes,
  /// shards, simulated-device accounting) moves. Null restores the default.
  void set_batch_chainer(BatchChainer chainer) { chainer_ = std::move(chainer); }

  /// Batched mapping, output order matching input order: both strands of
  /// every read are seeded host-parallel and chained as one ChainBatch
  /// through the batched chaining stage (set_batch_chainer, or the
  /// in-process SIMD engine); all reads' extension jobs are gathered into
  /// one kernel-sized PairBatch and aligned in a single `extend` call (the
  /// paper's batched seed-extension shape). When `trace` is set, every
  /// mapped read's (oriented read, genome window) pair is then traced as one
  /// batch through it, so each ReadMapping carries the CIGAR SAM emission
  /// needs; a null `trace` runs no traceback stage. `extend` is not called
  /// when there is no job, `trace` not when nothing mapped. `stats`, when
  /// non-null, is added to. Mappings are identical to map() per read for
  /// any extender that matches the CPU reference. Throws
  /// std::invalid_argument, naming the callback and both counts, when the
  /// chainer, `extend` or `trace` returns a count other than its input's.
  std::vector<ReadMapping> map_batch(std::span<const std::vector<seq::BaseCode>> reads,
                                     const BatchExtender& extend,
                                     const TracedBatchExtender& trace = {},
                                     MapStats* stats = nullptr) const;

  /// Streaming Sec. V-D pipeline: a reader thread pulls SequenceChunks from
  /// `reader` through a bounded queue (capacity `queue_capacity` chunks of
  /// backpressure) while the calling thread runs map_batch(chunk, extend,
  /// trace) on each and hands every (read, mapping) to `sink` in input
  /// order. Never more than queue_capacity + 2 chunks of reads are resident
  /// (the queue, plus the chunk in the producer's hands and the one being
  /// mapped). Mappings are identical to map_batch over the same reads; with
  /// a non-null `trace`, a sink that writes seedext::to_sam_record(...) is
  /// constant-memory FASTQ-to-SAM. Exceptions from the reader, the
  /// extenders, or the sink shut the pipeline down cleanly and rethrow here.
  MapStats map_stream(
      seq::SequenceChunkReader& reader, const BatchExtender& extend,
      const TracedBatchExtender& trace,
      const std::function<void(const seq::Sequence&, const ReadMapping&)>& sink,
      std::size_t queue_capacity = 4) const;

  /// Extracts every extension job the given reads generate (best strand,
  /// all surviving chains) — the kernel workload of Fig. 2 / Fig. 8.
  std::vector<ExtensionJob> collect_jobs(
      std::span<const std::vector<seq::BaseCode>> reads) const;

  /// Seeds for one read on its forward strand (exposed for tests/examples).
  std::vector<Seed> seeds_of(std::span<const seq::BaseCode> read) const;

 private:
  /// map_batch's score stages (seeding, batched chaining, one batched
  /// extension), a call of their own so that their seeds, chains and job
  /// copies are freed before the traceback stage builds its window batch.
  std::vector<ReadMapping> map_scores(std::span<const std::vector<seq::BaseCode>> reads,
                                      const BatchExtender& extend, MapStats* stats) const;

  struct StrandResult {
    std::vector<Chain> chains;
    std::int64_t coverage = 0;  ///< best chain score (strand selector)
  };
  StrandResult analyze(std::span<const seq::BaseCode> read) const;

  /// Everything map() derives from a read before extension: strand choice,
  /// the best chain's anchor and seed score, and its extension jobs. Both
  /// the per-job CPU path (map) and the batched path (map_batch + extender)
  /// run prepare → extend → finalize, so they agree by construction.
  struct PreparedRead {
    bool has_chain = false;
    bool use_rev = false;
    align::Score seed_score = 0;
    Seed anchor;
    std::vector<ExtensionJob> jobs;
  };
  PreparedRead prepare(std::span<const seq::BaseCode> read) const;
  /// The strand-choice + job-extraction tail of prepare, over already
  /// computed per-strand chains — shared by the per-read path and the
  /// batched chaining stage so the two agree by construction.
  PreparedRead prepare_from_chains(std::span<const seq::BaseCode> read,
                                   std::span<const seq::BaseCode> rc,
                                   const std::vector<Chain>& fwd,
                                   const std::vector<Chain>& rev) const;
  static ReadMapping finalize(const PreparedRead& pre,
                              std::span<const align::AlignmentResult> job_results);

  std::vector<seq::BaseCode> genome_;
  MapperParams params_;
  /// Refcounted handle from the shared-index registry (in-memory or mmap):
  /// mappers over the same reference share one index instead of rebuilding.
  std::shared_ptr<const SharedIndex> index_;
  /// The reference-sharded seeding path (params_.index_shards > 1).
  std::unique_ptr<ShardedKmerIndex> sharded_index_;
  BatchChainer chainer_;  ///< null = in-process chain engine
};

}  // namespace saloba::seedext
