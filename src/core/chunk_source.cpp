#include "core/chunk_source.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace saloba::core {

ResidentChunkSource::ResidentChunkSource(const seq::PairBatch& batch, std::size_t chunk_pairs)
    : batch_(&batch), chunk_pairs_(chunk_pairs < 1 ? 1 : chunk_pairs) {}

bool ResidentChunkSource::next(seq::PairBatch& chunk) {
  chunk = seq::PairBatch{};
  if (cursor_ >= batch_->size()) return false;
  std::size_t end = std::min(cursor_ + chunk_pairs_, batch_->size());
  for (std::size_t i = cursor_; i < end; ++i) {
    // Resolve the source batch's band channel per pair (band_of applies its
    // default_band too) so streamed chunks stay bit-identical to a one-shot
    // run over the same banded batch.
    chunk.add(batch_->queries[i], batch_->refs[i], batch_->band_of(i));
  }
  cursor_ = end;
  return true;
}

ReaderPairSource::ReaderPairSource(seq::SequenceChunkReader& queries,
                                   seq::SequenceChunkReader& refs)
    : queries_(&queries), refs_(&refs) {}

bool ReaderPairSource::next(seq::PairBatch& chunk) {
  chunk = seq::PairBatch{};
  // Pull matching record counts regardless of the two readers' chunk sizes.
  std::size_t want = std::min(queries_->chunk_records(), refs_->chunk_records());
  seq::Sequence q, r;
  for (std::size_t i = 0; i < want; ++i) {
    bool have_q = queries_->read_record(q);
    bool have_r = refs_->read_record(r);
    if (have_q != have_r) {
      throw std::runtime_error(
          have_q ? "reference stream ended before query stream (record " +
                       std::to_string(queries_->records_read()) + ")"
                 : "query stream ended before reference stream (record " +
                       std::to_string(refs_->records_read()) + ")");
    }
    if (!have_q) break;
    chunk.add(std::move(q.bases), std::move(r.bases));
  }
  return chunk.size() > 0;
}

}  // namespace saloba::core
