// Pull-model sources of PairBatch chunks — the ingest vocabulary of the
// streaming front end (core::StreamAligner, whose reader thread submits
// each chunk to an AlignService session). Kept apart from
// core/stream_aligner.hpp so a chunk source does not drag the pipeline
// definition in with it.
#pragma once

#include <cstddef>

#include "seq/chunk_reader.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

/// Pull-model source of PairBatch chunks. next() overwrites `chunk` with
/// the next slice of the stream and returns false once exhausted. Called
/// from one thread at a time (StreamAligner's reader thread).
class PairChunkSource {
 public:
  virtual ~PairChunkSource() = default;
  virtual bool next(seq::PairBatch& chunk) = 0;
};

/// Slices an already-resident batch into chunks of `chunk_pairs` — the
/// parity harness of the streamed-vs-one-shot tests and the resident
/// baseline of bench/stream_throughput. The batch must outlive the source.
class ResidentChunkSource final : public PairChunkSource {
 public:
  ResidentChunkSource(const seq::PairBatch& batch, std::size_t chunk_pairs);
  bool next(seq::PairBatch& chunk) override;

 private:
  const seq::PairBatch* batch_;
  std::size_t chunk_pairs_;
  std::size_t cursor_ = 0;
};

/// Zips two chunked record readers — record i of `queries` against record i
/// of `refs` — into PairBatch chunks (the two-file shape of an extension
/// workload on disk). Throws std::runtime_error if one stream runs out of
/// records before the other. The readers must outlive the source.
class ReaderPairSource final : public PairChunkSource {
 public:
  ReaderPairSource(seq::SequenceChunkReader& queries, seq::SequenceChunkReader& refs);
  bool next(seq::PairBatch& chunk) override;

 private:
  seq::SequenceChunkReader* queries_;
  seq::SequenceChunkReader* refs_;
};

}  // namespace saloba::core
