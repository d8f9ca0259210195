#include "align/batch.hpp"

#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::align {

std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring, BatchTiming* timing,
                                         int threads) {
  util::Timer timer;
  std::vector<AlignmentResult> results(batch.size());
  std::vector<std::size_t> cells(batch.size());
  util::parallel_for_indexed(
      batch.size(),
      [&](std::size_t i) {
        const std::size_t band = batch.band_of(i);  // 0 = full table
        if (band == 0) {
          // Full-table pair: the plain sweep is bit-identical and skips the
          // banded bookkeeping.
          results[i] = smith_waterman(batch.refs[i], batch.queries[i], scoring);
          cells[i] = batch.refs[i].size() * batch.queries[i].size();
          return;
        }
        auto banded = smith_waterman_banded(batch.refs[i], batch.queries[i], scoring, band);
        results[i] = banded.result;
        cells[i] = banded.cells_computed;
      },
      threads);
  if (timing) {
    timing->wall_ms = timer.millis();
    // Cells actually computed: the in-band count per pair (the full area for
    // unbanded ones).
    timing->cells = 0;
    for (std::size_t c : cells) timing->cells += c;
    timing->gcups =
        timing->wall_ms > 0 ? static_cast<double>(timing->cells) / (timing->wall_ms * 1e6) : 0.0;
  }
  return results;
}

}  // namespace saloba::align
