// Streaming alignment: a workload never has to be fully resident. One run()
// is one session of a private core::AlignService:
//
//   PairChunkSource ──reader thread──▶ submit ──▶ AlignService ──▶ poll ──▶
//   chunk reassembly (caller thread) ──▶ ChunkSink, in input order
//         ▲                                                      │
//         └──────────── residency tickets (queue_capacity) ◀─────┘
//
// The reader takes a ticket before pulling each chunk and the caller
// returns it after the sink, so at most `queue_capacity` chunks — hence at
// most chunk_pairs × queue_capacity pairs for chunks of at most chunk_pairs
// — are resident anywhere at once: queued, aligning, or delivered and
// waiting to be polled. The service aligns merged batches of chunk_pairs
// pairs through a BatchScheduler over the configured AlignBackend (CPU or
// simulated devices), scheduled per batch by core::recommend_scheduler, so
// a streamed run is bit-identical to the resident Aligner::align run on the
// same pairs: same results, same order. The first failure of the source,
// backend or sink cancels the session, joins every thread, and is rethrown
// from run().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/chunk_source.hpp"
#include "core/options.hpp"
#include "core/scheduler.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

struct StreamOptions {
  /// Pairs per merged batch of the private service, and per chunk for
  /// sources this class builds itself (align_streamed). A source whose
  /// chunks hold another size still streams bit-identically, but a batch
  /// may then join or split chunks, which moves shard counts and modeled
  /// times.
  std::size_t chunk_pairs = 2048;
  /// Residency tickets: chunks pulled from the source and not yet handed to
  /// the sink; peak resident pairs <= chunk_pairs * queue_capacity for
  /// chunks of at most chunk_pairs pairs.
  std::size_t queue_capacity = 4;
  /// Align workers of the private service. Above 1, each worker owns its
  /// own backend replica (built from the same AlignerOptions) so simulated
  /// lanes are never shared across threads; results stay bit-identical and
  /// the sink still sees chunks in input order.
  std::size_t align_threads = 1;
};

/// Running aggregates over the whole stream.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t pairs = 0;
  std::size_t cells = 0;
  std::size_t shards = 0;  ///< scheduler shards summed over merged batches
  /// Aligner time serialized across merged batches: the sum of their
  /// makespans (wall-clock for the CPU backend, simulated ms for simulated
  /// devices).
  double align_ms = 0.0;
  double gcups = 0.0;  ///< cells / align_ms (0 when nothing aligned)
  /// Traced runs only: AlignOutput::traceback_ms and traceback_cells
  /// summed over merged batches — the time and cells the traces took beyond
  /// align_ms and cells, the same split as AlignOutput (on the host: 0 ms,
  /// the traced wave being all in align_ms, and the replayed cells).
  double traceback_ms = 0.0;
  std::size_t traceback_cells = 0;
  /// Host wall-clock for the whole stream, ingest to last emit — the
  /// pipelined figure benches compare against resident runs.
  double wall_ms = 0.0;
  /// Per-lane busy totals summed over merged batches; size == backend lanes.
  std::vector<double> lane_ms;
  std::size_t peak_resident_pairs = 0;   ///< max pairs in flight at once
  std::size_t peak_resident_chunks = 0;  ///< max chunks in flight (<= queue_capacity)
};

/// Ordered consumer: called once per non-empty chunk, in input order, on
/// the thread that called run(). `first_pair` is the stream index of
/// results[0]; `output` carries the chunk's results and, on traced runs,
/// its traces (the run's figures are in StreamStats).
using ChunkSink = std::function<void(std::size_t chunk_index, std::size_t first_pair,
                                     AlignOutput&& output)>;

class StreamAligner {
 public:
  /// Resolves the backend immediately (throws std::invalid_argument on
  /// unknown kernel/device names or bad AlignerOptions, like Aligner).
  explicit StreamAligner(AlignerOptions options, StreamOptions stream = {});
  ~StreamAligner();
  StreamAligner(StreamAligner&&) noexcept;
  StreamAligner& operator=(StreamAligner&&) noexcept;

  const AlignerOptions& options() const { return options_; }
  const StreamOptions& stream_options() const { return stream_; }
  const AlignBackend& backend() const { return *backend_; }

  /// Pumps the source through one session of a private AlignService;
  /// `sink` (may be null) receives every chunk in input order. The first
  /// exception from the source, the backend or the sink shuts the session
  /// down, joins all threads, and is rethrown here.
  StreamStats run(PairChunkSource& source, const ChunkSink& sink);

  /// Streams a resident batch and reassembles one AlignOutput with results
  /// in input order — bit-identical to Aligner::align on the same batch
  /// (same results, same order; time_ms is the batch-serialized align_ms).
  AlignOutput align_streamed(const seq::PairBatch& batch);

 private:
  AlignerOptions options_;
  StreamOptions stream_;
  std::unique_ptr<AlignBackend> backend_;
};

}  // namespace saloba::core
