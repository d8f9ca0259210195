// Differential fuzz for the SIMD engine's traced mode
// (align::simd::trace_batch): every end and forward cell count must be the
// scalar score pass's (align::align_batch), and every trace bit-identical
// to the scalar checkpointed engine (align::banded_traceback) and to the
// full-matrix masked-DP oracle (smith_waterman_traceback) — endpoints,
// start coordinates and CIGAR — across random scorings (mismatch 0 and
// gap_open 0 included), N bases, indels, bands {0, 1, 8, 32, huge},
// checkpoint_rows {0, 1, 3, 5, 17, 1024}, cohort
// fills {1, 31, 32, 33}, the 16-bit rescue, the int32 and over-budget
// fallbacks, and empty / zero-score pairs; the replays stay within the rows
// and columns each walk can reach. The suite runs through whichever
// kernels the host dispatches: AVX2, or OpsGeneric on builds without it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"

namespace saloba::align {
namespace {

constexpr std::size_t kHugeBand = std::size_t{1} << 20;

/// A query derived from `ref`: a random window with substitutions, N bases
/// and insertions/deletions of 1-6 bases (multi-base gaps are what exercise
/// the gap-open vs gap-extend decisions), or an unrelated random sequence.
std::vector<seq::BaseCode> derived_query(util::Xoshiro256& rng,
                                         const std::vector<seq::BaseCode>& ref,
                                         std::size_t max_len) {
  if (rng.bernoulli(0.25)) {
    return saloba::testing::random_seq_with_n(rng, 1 + rng.below(max_len), 0.03);
  }
  const std::size_t begin = rng.below(ref.size());
  std::vector<seq::BaseCode> query;
  for (std::size_t i = begin; i < ref.size() && query.size() < max_len; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.04) {  // deletion
      i += rng.below(6);
      continue;
    }
    if (roll < 0.08) {  // insertion
      for (std::size_t k = 1 + rng.below(6); k > 0; --k) {
        query.push_back(static_cast<seq::BaseCode>(rng.below(4)));
      }
    }
    const double sub = rng.uniform();
    query.push_back(sub < 0.02   ? seq::kBaseN
                    : sub < 0.10 ? static_cast<seq::BaseCode>(rng.below(4))
                                 : ref[i]);
  }
  if (query.empty()) query.push_back(ref[begin]);
  return query;
}

ScoringScheme random_scoring(util::Xoshiro256& rng) {
  ScoringScheme s;
  s.match = 1 + static_cast<Score>(rng.below(3));
  s.mismatch = static_cast<Score>(rng.below(6));    // 0 included
  s.gap_open = static_cast<Score>(rng.below(8));    // 0 included
  s.gap_extend = 1 + static_cast<Score>(rng.below(3));
  return s;
}

seq::PairBatch random_batch(util::Xoshiro256& rng, std::size_t pairs, std::size_t max_len) {
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    auto ref = saloba::testing::random_seq_with_n(rng, 1 + rng.below(max_len), 0.02);
    auto query = derived_query(rng, ref, max_len);
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

/// Traces `batch` through the SIMD pass and checks every pair against the
/// scalar score pass (align_batch: endpoints and cells), against
/// banded_traceback with the same knobs and against the full-matrix oracle.
/// Returns the stats.
simd::TraceStats expect_identical(const seq::PairBatch& batch, const ScoringScheme& s,
                                  std::size_t checkpoint_rows, const std::string& label) {
  BatchTiming timing;
  const auto ends = align_batch(batch, s, &timing);
  simd::TraceStats stats;
  const auto traced = simd::trace_batch(batch, s, &stats, /*threads=*/0, checkpoint_rows);
  EXPECT_EQ(traced.size(), batch.size()) << label;
  std::size_t swept = 0;
  for (std::size_t p = 0; p < batch.size(); ++p) {
    const std::string where = label + " pair " + std::to_string(p);
    swept += !batch.refs[p].empty() && !batch.queries[p].empty();
    EXPECT_EQ(traced[p].end, ends[p]) << where;
    if (ends[p].score <= 0) {
      EXPECT_EQ(traced[p], TracedAlignment{}) << where;
      continue;
    }
    TracebackParams params;
    params.band = batch.band_of(p);
    params.checkpoint_rows = checkpoint_rows;
    const TracebackResult want = banded_traceback(batch.refs[p], batch.queries[p], s, params);
    EXPECT_EQ(traced[p], want.traced) << where;
    EXPECT_EQ(traced[p],
              smith_waterman_traceback(batch.refs[p], batch.queries[p], s, params.band))
        << where;
  }
  EXPECT_EQ(stats.pairs, swept) << label;
  EXPECT_EQ(stats.pairs_8bit + stats.rescued_16bit + stats.scalar_pairs, stats.pairs) << label;
  // The forward sweeps are the score pass: exactly its in-band cells. Each
  // row is replayed at most once.
  EXPECT_EQ(stats.forward_cells, timing.cells) << label;
  EXPECT_LE(stats.replay_cells, stats.forward_cells) << label;
  return stats;
}

TEST(SimdTraceback, MatchesScalarEngineAndOracleAcrossBandsAndCheckpoints) {
  util::Xoshiro256 rng(7301);
  std::size_t vector_traced = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const ScoringScheme s = random_scoring(rng);
    seq::PairBatch batch = random_batch(rng, 40, 110);
    for (std::size_t band : {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{32},
                             kHugeBand}) {
      batch.default_band = band;
      for (std::size_t chk : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{17},
                              std::size_t{1024}}) {
        const auto stats = expect_identical(batch, s, chk,
                                            "trial " + std::to_string(trial) + " band " +
                                                std::to_string(band) + " chk " +
                                                std::to_string(chk));
        vector_traced += stats.pairs_8bit + stats.rescued_16bit;
      }
    }
  }
  EXPECT_GT(vector_traced, 0u);
}

TEST(SimdTraceback, ShortPairsUnderWideScorings) {
  // Short pairs under wide random scorings make ties between the diagonal,
  // gap-open and gap-extend predecessors dense — the decisions the flag
  // bytes record — so every flag bit is pinned against the oracle.
  util::Xoshiro256 rng(7305);
  for (int trial = 0; trial < 400; ++trial) {
    ScoringScheme s;
    s.match = 1 + static_cast<Score>(rng.below(4));
    s.mismatch = static_cast<Score>(rng.below(8));
    s.gap_open = static_cast<Score>(rng.below(12));
    s.gap_extend = 1 + static_cast<Score>(rng.below(3));
    seq::PairBatch batch = random_batch(rng, 32, 24);
    batch.default_band = trial % 3 == 0 ? 4 : 0;
    expect_identical(batch, s, trial % 4, "short trial " + std::to_string(trial));
  }
}

TEST(SimdTraceback, EdgeScoringsMismatchZeroAndGapOpenZero) {
  util::Xoshiro256 rng(7302);
  for (const ScoringScheme s : {ScoringScheme{1, 0, 6, 1}, ScoringScheme{2, 3, 0, 1},
                                ScoringScheme{1, 0, 0, 2}, ScoringScheme{3, 1, 0, 3}}) {
    seq::PairBatch batch = random_batch(rng, 36, 90);
    for (std::size_t band : {std::size_t{0}, std::size_t{8}}) {
      batch.default_band = band;
      for (std::size_t chk : {std::size_t{0}, std::size_t{3}}) {
        expect_identical(batch, s, chk,
                         "scoring " + std::to_string(s.match) + "/" +
                             std::to_string(s.mismatch) + "/" + std::to_string(s.gap_open) +
                             "/" + std::to_string(s.gap_extend));
      }
    }
  }
}

TEST(SimdTraceback, MixedPerPairBandsInOneCohort) {
  util::Xoshiro256 rng(7304);
  seq::PairBatch batch;
  const std::size_t bands[] = {0, 1, 8, 32, kHugeBand};
  for (std::size_t p = 0; p < 45; ++p) {
    auto ref = saloba::testing::random_seq(rng, 20 + rng.below(100));
    auto query = derived_query(rng, ref, 110);
    batch.add(std::move(query), std::move(ref), bands[p % 5]);
  }
  expect_identical(batch, ScoringScheme{}, 0, "mixed bands");
  expect_identical(batch, ScoringScheme{}, 5, "mixed bands chk 5");
}

/// The most cells a block replay may re-derive for `t`'s walk with K-row
/// blocks: in each block the walk stands in, the rows from the block's first
/// through the walk's entry row times the columns through its entry column
/// (1-based, so both counts include the entry cell).
std::size_t walk_rectangle_cells(const TracedAlignment& t, std::size_t k) {
  std::size_t i = static_cast<std::size_t>(t.end.ref_end) + 1;
  std::size_t j = static_cast<std::size_t>(t.end.query_end) + 1;
  std::size_t bound = 0;
  std::size_t block = SIZE_MAX;
  const auto stand = [&] {
    if (i == 0 || j == 0 || (i - 1) / k == block) return;
    block = (i - 1) / k;
    bound += (i - block * k) * j;
  };
  stand();
  // The CIGAR's ops back to front are the walk's steps; I steps left, D up.
  const std::string ops = expand_cigar(t.cigar);
  for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
    i -= *op != 'I';
    j -= *op != 'D';
    stand();
  }
  return bound;
}

TEST(SimdTraceback, ReplaysStopAtEachLanesWalkColumn) {
  // One cohort whose walks end at far-apart columns: every query is a
  // 250-column table whose tail past the planted segment is N, which
  // matches nothing, so each best cell sits near column 5, 60 or 240.
  // Banded and unbanded lanes mix. Each lane replays only the columns up
  // to its walk's, so the cohort's replayed cells stay within the sum of
  // the walks' per-block rectangles; replays across each row's whole band
  // window exceed it.
  constexpr std::size_t kRows = 60, kCols = 250;
  util::Xoshiro256 rng(7606);
  seq::PairBatch batch;
  const std::size_t ends[] = {5, 60, 240};
  const std::size_t bands[] = {0, 8, 32};
  for (std::size_t p = 0; p < 30; ++p) {
    const std::size_t end = ends[p % 3];
    // The column-240 segment runs 181 columns off the main diagonal, so its
    // lanes take no band or one that holds it.
    const std::size_t band = end == 240 ? ((p / 3) % 2 == 0 ? 0 : 200) : bands[(p / 3) % 3];
    auto ref = saloba::testing::random_seq(rng, kRows);
    std::vector<seq::BaseCode> query(kCols, seq::kBaseN);
    // The segment ending at column `end` copies the reference from row
    // `row` on, with substitutions; the columns before it are random. An
    // unbanded column-5 lane copies rows 40.., so its walk starts deep.
    const std::size_t len = std::min(end + 1, kRows);
    const std::size_t row = end == 5 && band == 0 ? 40 : 0;
    const auto prefix = saloba::testing::random_seq(rng, end + 1 - len);
    std::copy(prefix.begin(), prefix.end(), query.begin());
    for (std::size_t k = 0; k < len; ++k) {
      query[end + 1 - len + k] =
          rng.bernoulli(0.08) ? static_cast<seq::BaseCode>(rng.below(4)) : ref[row + k];
    }
    batch.add(std::move(query), std::move(ref), band);
  }

  const ScoringScheme s{};
  for (std::size_t chk : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    const std::string label = "walk columns chk " + std::to_string(chk);
    const auto stats = expect_identical(batch, s, chk, label);
    EXPECT_EQ(stats.pairs_8bit, batch.size()) << label;
    const auto traced = simd::trace_batch(batch, s, nullptr, /*threads=*/0, chk);
    const std::size_t k = checkpoint_block_rows(kRows, chk);
    std::size_t bound = 0;
    std::size_t near_end[3] = {};
    for (std::size_t p = 0; p < batch.size(); ++p) {
      bound += walk_rectangle_cells(traced[p], k);
      const auto col = static_cast<std::size_t>(traced[p].end.query_end);
      near_end[p % 3] += col + 3 >= ends[p % 3] && col <= ends[p % 3];
    }
    EXPECT_LE(stats.replay_cells, bound) << label;
    for (std::size_t e = 0; e < 3; ++e) EXPECT_GE(near_end[e], 8u) << label << " end " << ends[e];
  }
}

TEST(SimdTraceback, CohortFills) {
  for (std::size_t pairs : {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33}}) {
    util::Xoshiro256 rng(7400 + pairs);
    const seq::PairBatch batch = random_batch(rng, pairs, 100);
    const auto stats = expect_identical(batch, ScoringScheme{}, 0,
                                        "fill " + std::to_string(pairs));
    EXPECT_EQ(stats.scalar_pairs, 0u) << pairs;
  }
}

TEST(SimdTraceback, SixteenBitRescueCohortFills) {
  // Near-identical pairs scoring > 255 saturate the 8-bit lanes; the 16-bit
  // pass (16 lanes) traces them, at cohort fills around its width.
  for (std::size_t pairs : {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17}}) {
    util::Xoshiro256 rng(7500 + pairs);
    seq::PairBatch batch;
    for (std::size_t p = 0; p < pairs; ++p) {
      auto ref = saloba::testing::random_seq(rng, 200 + rng.below(60));
      auto query = saloba::testing::mutate(rng, ref, 0.02);
      query.erase(query.begin() + 50, query.begin() + 52);  // one 2-base deletion
      batch.add(std::move(query), std::move(ref));
    }
    const ScoringScheme s{2, 4, 6, 1};
    for (std::size_t chk : {std::size_t{0}, std::size_t{17}}) {
      const auto stats = expect_identical(batch, s, chk, "rescue " + std::to_string(pairs));
      EXPECT_EQ(stats.rescued_16bit, pairs);
      EXPECT_EQ(stats.pairs_8bit, 0u);
    }
  }
}

TEST(SimdTraceback, Int32AndOverBudgetFallbacks) {
  util::Xoshiro256 rng(7601);
  seq::PairBatch batch;
  // Scores past 65535 saturate both vector widths: int32 via banded_traceback.
  auto ref = saloba::testing::random_seq(rng, 90);
  batch.add(ref, ref);
  // Alone over the cohort working-set cap at the default K.
  auto big_ref = saloba::testing::random_seq(rng, 700);
  batch.add(saloba::testing::mutate(rng, big_ref, 0.05), big_ref);
  // Longer than the 16-bit index guard.
  auto long_ref = saloba::testing::random_seq(rng, 32001);
  batch.add(std::vector<seq::BaseCode>(long_ref.end() - 40, long_ref.end()), long_ref);
  // A short pair the 16-bit pass still holds.
  auto small_ref = saloba::testing::random_seq(rng, 60);
  batch.add(saloba::testing::mutate(rng, small_ref, 0.05), small_ref);

  const ScoringScheme heavy{1000, 4, 6, 1};
  const auto stats = expect_identical(batch, heavy, 0, "int32");
  EXPECT_EQ(stats.scalar_pairs, 3u);
  EXPECT_EQ(stats.rescued_16bit, 1u);

  // checkpoint_rows 1 puts a 200 x 200 pair over the cap (one snapshot per
  // row), while the scoring keeps it in 8 bits.
  seq::PairBatch budget;
  auto mid_ref = saloba::testing::random_seq(rng, 200);
  budget.add(saloba::testing::mutate(rng, mid_ref, 0.1), mid_ref);
  budget.add(saloba::testing::mutate(rng, small_ref, 0.1), small_ref);
  const auto budget_stats = expect_identical(budget, ScoringScheme{}, 1, "over budget");
  EXPECT_EQ(budget_stats.scalar_pairs, 1u);
  EXPECT_EQ(budget_stats.pairs_8bit, 1u);
}

TEST(SimdTraceback, CohortsSplitUnderTheWorkingSetCap) {
  // Each pair fits alone, but the tall first pair fixes the cohort's rows
  // and K while the wide second one fixes its columns: packed together they
  // would exceed the cap, so they trace in two vector cohorts.
  util::Xoshiro256 rng(7602);
  seq::PairBatch batch;
  auto tall = saloba::testing::random_seq(rng, 500);
  batch.add(std::vector<seq::BaseCode>(tall.begin() + 100, tall.begin() + 130), tall);
  auto wide_ref = saloba::testing::random_seq(rng, 100);
  auto wide_query = saloba::testing::random_seq(rng, 490);
  std::copy(wide_ref.begin(), wide_ref.end(), wide_query.begin() + 200);
  batch.add(std::move(wide_query), std::move(wide_ref));
  const auto stats = expect_identical(batch, ScoringScheme{}, 0, "cap split");
  EXPECT_EQ(stats.pairs_8bit, 2u);
  EXPECT_EQ(stats.scalar_pairs, 0u);
}

TEST(SimdTraceback, EmptyAndZeroScorePairs) {
  seq::PairBatch batch;
  batch.add({}, {0, 1, 2});
  batch.add({0, 1, 2}, {});
  batch.add({}, {});
  batch.add(std::vector<seq::BaseCode>(12, 0), std::vector<seq::BaseCode>(12, 1));  // hopeless
  batch.add(std::vector<seq::BaseCode>(5, seq::kBaseN), std::vector<seq::BaseCode>(5, seq::kBaseN));
  batch.add({0, 1, 2, 3}, {0, 1, 2, 3});  // the one real alignment
  const auto stats = expect_identical(batch, ScoringScheme{}, 0, "degenerate");
  EXPECT_EQ(stats.pairs, 3u);  // the two zero-score pairs are swept too

  // An empty batch is a no-op.
  simd::TraceStats empty_stats;
  EXPECT_TRUE(simd::trace_batch(seq::PairBatch{}, ScoringScheme{}, &empty_stats).empty());
  EXPECT_EQ(empty_stats.pairs, 0u);
}

TEST(SimdTraceback, ZeroScorePairsGetTheEmptyTraceAndTheScorePassEnd) {
  // Hopeless pairs share cohorts with aligning ones: each is swept, its
  // cells counted as the score pass counts them, and it ends with the
  // empty trace, whose end is the score pass's zero result.
  util::Xoshiro256 rng(7603);
  seq::PairBatch batch = random_batch(rng, 20, 80);
  for (std::size_t p = 0; p < 20; ++p) {
    batch.add(std::vector<seq::BaseCode>(8 + p, 0), std::vector<seq::BaseCode>(30 + p, 1));
  }
  BatchTiming timing;
  const auto ends = align_batch(batch, ScoringScheme{}, &timing);
  simd::TraceStats stats;
  const auto traced = simd::trace_batch(batch, ScoringScheme{}, &stats);
  std::size_t zero = 0;
  for (std::size_t p = 0; p < batch.size(); ++p) {
    EXPECT_EQ(traced[p].end, ends[p]) << p;
    if (ends[p].score > 0) continue;
    ++zero;
    EXPECT_EQ(traced[p], TracedAlignment{}) << p;
  }
  EXPECT_GE(zero, 20u);
  EXPECT_EQ(stats.pairs, batch.size());
  EXPECT_EQ(stats.scalar_pairs, 0u);
  EXPECT_EQ(stats.forward_cells, timing.cells);
}

TEST(SimdTraceback, ThreadedMatchesSingleThread) {
  util::Xoshiro256 rng(7604);
  const seq::PairBatch batch = random_batch(rng, 150, 120);
  const auto one = simd::trace_batch(batch, ScoringScheme{}, nullptr, /*threads=*/1);
  const auto many = simd::trace_batch(batch, ScoringScheme{}, nullptr, /*threads=*/4);
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace saloba::align
