#include "align/simd_engine.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "align/simd_kernel.hpp"
#include "align/simd_vec.hpp"
#include "align/sw_banded.hpp"
#include "align/traceback_engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::align::simd {

namespace detail {

void run_pass_u8_generic(const PassRequest& req) { run_pass<OpsU8Generic>(req); }
void run_pass_u16_generic(const PassRequest& req) { run_pass<OpsU16Generic>(req); }

}  // namespace detail

bool compiled_with_avx2() {
#if defined(SALOBA_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* isa_name() {
  return compiled_with_avx2() && cpu_supports_avx2() ? "avx2" : "generic";
}

namespace {

using detail::PassRequest;

/// int32 scalar settlement for one pair through the banded oracle, whose
/// band 0 is the full table (n·m cells). align::align_batch runs
/// smith_waterman on unbanded pairs instead; the two are bit-identical
/// (BandedSW.ZeroBandComputesTheFullTable), so results and cells match.
void settle_scalar(const seq::PairBatch& batch, const ScoringScheme& scoring, std::size_t p,
                   AlignmentResult& result, std::size_t& cell_count) {
  const BandedResult br =
      smith_waterman_banded(batch.refs[p], batch.queries[p], scoring, batch.band_of(p));
  result = br.result;
  cell_count = br.cells_computed;
}

/// Sorts vector pairs longest-first so cohort rectangles stay tight (lanes
/// in a cohort share the padded row/column extent).
void sort_cohort_order(const seq::PairBatch& batch, std::vector<std::size_t>& pairs) {
  std::stable_sort(pairs.begin(), pairs.end(), [&](std::size_t a, std::size_t b) {
    if (batch.refs[a].size() != batch.refs[b].size()) {
      return batch.refs[a].size() > batch.refs[b].size();
    }
    return batch.queries[a].size() > batch.queries[b].size();
  });
}

/// One pass over `req.pairs` at 8-bit (`wide` false) or 16-bit lanes on the
/// dispatched ISA.
void run_width(const PassRequest& req, bool wide, bool use_avx2) {
#if defined(SALOBA_SIMD_AVX2)
  if (use_avx2) {
    wide ? detail::run_pass_u16_avx2(req) : detail::run_pass_u8_avx2(req);
    return;
  }
#endif
  (void)use_avx2;
  wide ? detail::run_pass_u16_generic(req) : detail::run_pass_u8_generic(req);
}

/// The 8-bit pass over `vec_pairs`, then the 16-bit rescue of its saturated
/// lanes; returns the pairs that saturated 16 bits too, and counts the
/// pairs each width settled. `req.overflowed` must be all zero on entry.
std::vector<std::size_t> run_ladder(PassRequest& req, const std::vector<std::size_t>& vec_pairs,
                                    bool use_avx2, std::size_t& settled_8bit,
                                    std::size_t& settled_16bit) {
  std::vector<std::uint8_t>& overflowed = *req.overflowed;
  if (!vec_pairs.empty()) {
    req.pairs = vec_pairs;
    run_width(req, /*wide=*/false, use_avx2);
  }
  // 16-bit rescue of saturated lanes (filtering preserves sorted order).
  std::vector<std::size_t> wide_pairs, saturated;
  for (std::size_t p : vec_pairs) {
    if (overflowed[p]) wide_pairs.push_back(p);
  }
  settled_8bit = vec_pairs.size() - wide_pairs.size();
  if (!wide_pairs.empty()) {
    std::fill(overflowed.begin(), overflowed.end(), std::uint8_t{0});
    req.pairs = wide_pairs;
    run_width(req, /*wide=*/true, use_avx2);
    for (std::size_t p : wide_pairs) {
      if (overflowed[p]) saturated.push_back(p);
    }
  }
  settled_16bit = wide_pairs.size() - saturated.size();
  return saturated;
}

}  // namespace

std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring, EngineStats* stats,
                                         int threads) {
  SALOBA_CHECK(scoring.valid());
  const util::Timer timer;
  const std::size_t n_pairs = batch.size();
  std::vector<AlignmentResult> results(n_pairs);
  std::vector<std::size_t> cells(n_pairs, 0);
  std::vector<std::uint8_t> overflowed(n_pairs, 0);

  const bool use_avx2 = compiled_with_avx2() && cpu_supports_avx2();
  EngineStats local;
  local.pairs = n_pairs;
  local.avx2 = use_avx2;

  // Route: empty pairs settle immediately (score 0, no cells); pairs beyond
  // the 16-bit index guard go straight to int32; everything else enters the
  // 8-bit pass.
  std::vector<std::size_t> vec_pairs, scalar_pairs;
  vec_pairs.reserve(n_pairs);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::size_t n = batch.refs[p].size();
    const std::size_t m = batch.queries[p].size();
    if (n == 0 || m == 0) continue;  // results[p] stays the empty alignment
    if (std::max(n, m) > detail::kMaxSimdLen) {
      scalar_pairs.push_back(p);
    } else {
      vec_pairs.push_back(p);
    }
  }
  sort_cohort_order(batch, vec_pairs);

  PassRequest req;
  req.batch = &batch;
  req.scoring = &scoring;
  req.results = &results;
  req.cells = &cells;
  req.overflowed = &overflowed;
  req.threads = threads;
  const std::vector<std::size_t> saturated =
      run_ladder(req, vec_pairs, use_avx2, local.pairs_8bit, local.rescued_16bit);
  const std::size_t wide_pairs = vec_pairs.size() - local.pairs_8bit;
  local.cohorts = (vec_pairs.size() + 31) / 32 + (wide_pairs + 15) / 16;
  scalar_pairs.insert(scalar_pairs.end(), saturated.begin(), saturated.end());
  local.rescued_32bit = scalar_pairs.size();

  // int32 scalar settlement (oversize pairs + double-saturated rescues).
  if (!scalar_pairs.empty()) {
    util::parallel_for_indexed(
        scalar_pairs.size(),
        [&](std::size_t k) {
          const std::size_t p = scalar_pairs[k];
          settle_scalar(batch, scoring, p, results[p], cells[p]);
        },
        threads);
  }

  if (stats != nullptr) {
    local.cells = std::accumulate(cells.begin(), cells.end(), std::size_t{0});
    local.wall_ms = timer.millis();
    *stats = local;
  }
  return results;
}

std::vector<TracedAlignment> trace_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring, TraceStats* stats,
                                         int threads, std::size_t checkpoint_rows) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t n_pairs = batch.size();
  std::vector<TracedAlignment> traced(n_pairs);
  std::vector<std::size_t> forward(n_pairs, 0), replay(n_pairs, 0);
  std::vector<std::uint8_t> overflowed(n_pairs, 0);

  const bool use_avx2 = compiled_with_avx2() && cpu_supports_avx2();
  TraceStats local;

  // Route: empty pairs keep the empty trace; pairs beyond the 16-bit index
  // guard, or whose cohort working set alone would exceed the cap, go to
  // the scalar engine; everything else enters the 8-bit traced pass.
  std::vector<std::size_t> vec_pairs, scalar_pairs;
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::size_t n = batch.refs[p].size();
    const std::size_t m = batch.queries[p].size();
    if (n == 0 || m == 0) continue;
    ++local.pairs;
    if (std::max(n, m) > detail::kMaxSimdLen ||
        detail::trace_cohort_bytes(n, m, checkpoint_block_rows(n, checkpoint_rows)) >
            detail::kMaxTraceCohortBytes) {
      scalar_pairs.push_back(p);
    } else {
      vec_pairs.push_back(p);
    }
  }
  sort_cohort_order(batch, vec_pairs);

  PassRequest req;
  req.batch = &batch;
  req.scoring = &scoring;
  req.cells = &forward;
  req.overflowed = &overflowed;
  req.threads = threads;
  req.traced = &traced;
  req.replay_cells = &replay;
  req.checkpoint_rows = checkpoint_rows;
  const std::vector<std::size_t> saturated =
      run_ladder(req, vec_pairs, use_avx2, local.pairs_8bit, local.rescued_16bit);
  scalar_pairs.insert(scalar_pairs.end(), saturated.begin(), saturated.end());
  local.scalar_pairs = scalar_pairs.size();

  util::parallel_for_indexed(
      scalar_pairs.size(),
      [&](std::size_t k) {
        const std::size_t p = scalar_pairs[k];
        TracebackParams params;
        params.band = batch.band_of(p);
        params.checkpoint_rows = checkpoint_rows;
        TracebackResult r = banded_traceback(batch.refs[p], batch.queries[p], scoring, params);
        traced[p] = std::move(r.traced);
        forward[p] = r.stats.forward_cells;
        replay[p] = r.stats.replay_cells;
      },
      threads);

  if (stats != nullptr) {
    local.forward_cells = std::accumulate(forward.begin(), forward.end(), std::size_t{0});
    local.replay_cells = std::accumulate(replay.begin(), replay.end(), std::size_t{0});
    *stats = local;
  }
  return traced;
}

}  // namespace saloba::align::simd
