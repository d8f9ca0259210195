// Differential fuzz for the linear-memory checkpointed traceback engine:
// randomized (seq, scoring, band) triples must reproduce the full-matrix
// masked-DP oracle bit-for-bit — endpoints, start coordinates AND the CIGAR
// string — across band ∈ {1, 8, huge}, checkpoint spacings down to 1 row,
// and empty/degenerate pairs; banded traces must never leave the band.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"

namespace saloba::align {
namespace {

struct Fuzz {
  util::Xoshiro256 rng;
  explicit Fuzz(std::uint64_t seed) : rng(seed) {}

  std::pair<std::vector<seq::BaseCode>, std::vector<seq::BaseCode>> next_pair(
      std::size_t max_len) {
    std::size_t n = 1 + rng.below(max_len);
    std::size_t m = 1 + rng.below(max_len);
    auto ref = saloba::testing::random_seq(rng, n);
    std::vector<seq::BaseCode> query;
    if (m <= n && rng.bernoulli(0.6)) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(m));
      query = saloba::testing::mutate(rng, query, 0.05 + 0.2 * rng.uniform());
    } else {
      query = saloba::testing::random_seq(rng, m);
    }
    return {std::move(ref), std::move(query)};
  }

  ScoringScheme next_scoring() {
    ScoringScheme s;
    s.match = 1 + static_cast<Score>(rng.below(3));
    s.mismatch = static_cast<Score>(rng.below(6));
    s.gap_open = static_cast<Score>(rng.below(8));
    s.gap_extend = 1 + static_cast<Score>(rng.below(3));
    return s;
  }
};

/// Every aligned (M/D-consuming) column of the trace satisfies
/// |ref_index - query_index| <= band.
bool trace_within_band(const TracedAlignment& t, std::size_t band) {
  if (t.end.score == 0) return true;
  std::size_t ri = static_cast<std::size_t>(t.ref_start);
  std::size_t qj = static_cast<std::size_t>(t.query_start);
  for (char op : expand_cigar(t.cigar)) {
    if (op == 'M') {
      ++ri;
      ++qj;
    } else if (op == 'I') {
      ++qj;
    } else {
      ++ri;
    }
    std::size_t diff = ri > qj ? ri - qj : qj - ri;
    if (diff > band) return false;
  }
  return true;
}

void expect_same(const TracedAlignment& got, const TracedAlignment& want,
                 const char* what, int trial) {
  EXPECT_EQ(got.end, want.end) << what << " trial " << trial;
  EXPECT_EQ(got.ref_start, want.ref_start) << what << " trial " << trial;
  EXPECT_EQ(got.query_start, want.query_start) << what << " trial " << trial;
  EXPECT_EQ(got.cigar, want.cigar) << what << " trial " << trial;
}

TEST(TracebackFuzz, MatchesFullMatrixOracleUnbanded) {
  Fuzz fuzz(9100);
  for (int trial = 0; trial < 120; ++trial) {
    auto [ref, query] = fuzz.next_pair(120);
    ScoringScheme s = fuzz.next_scoring();
    auto oracle = smith_waterman_traceback(ref, query, s);
    for (std::size_t chk : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      TracebackParams params;
      params.checkpoint_rows = chk;
      auto got = banded_traceback(ref, query, s, params);
      expect_same(got.traced, oracle, "unbanded", trial);
      EXPECT_TRUE(cigar_consistent(got.traced, ref.size(), query.size()));
    }
  }
}

TEST(TracebackFuzz, MatchesMaskedOracleAcrossBands) {
  Fuzz fuzz(9200);
  for (int trial = 0; trial < 100; ++trial) {
    auto [ref, query] = fuzz.next_pair(100);
    ScoringScheme s = fuzz.next_scoring();
    // huge band == full table; 1 and 8 exercise real masking.
    for (std::size_t band : {std::size_t{1}, std::size_t{8}, std::size_t{100000}}) {
      auto oracle = smith_waterman_traceback(ref, query, s, band);
      TracebackParams params;
      params.band = band;
      params.checkpoint_rows = 1 + fuzz.rng.below(16);
      auto got = banded_traceback(ref, query, s, params);
      expect_same(got.traced, oracle, "banded", trial);
      EXPECT_TRUE(trace_within_band(got.traced, band)) << "band " << band;
      EXPECT_TRUE(cigar_consistent(got.traced, ref.size(), query.size()));
      if (got.traced.end.score > 0) {
        EXPECT_EQ(rescore_cigar(got.traced, ref, query, s), got.traced.end.score);
      }
      // The banded forward sweep is the banded score pass.
      auto score_pass = smith_waterman_banded(ref, query, s, band);
      EXPECT_EQ(got.traced.end, score_pass.result);
    }
  }
}

TEST(TracebackFuzz, HugeBandEqualsUnbandedOracle) {
  Fuzz fuzz(9250);
  for (int trial = 0; trial < 40; ++trial) {
    auto [ref, query] = fuzz.next_pair(80);
    ScoringScheme s = fuzz.next_scoring();
    auto unbanded = smith_waterman_traceback(ref, query, s);
    TracebackParams params;
    params.band = ref.size() + query.size();  // covers every cell
    auto got = banded_traceback(ref, query, s, params);
    expect_same(got.traced, unbanded, "huge-band", trial);
  }
}

TEST(TracebackFuzz, DegeneratePairs) {
  ScoringScheme s;
  std::vector<seq::BaseCode> empty;
  std::vector<seq::BaseCode> one{0};
  std::vector<seq::BaseCode> acgt{0, 1, 2, 3};

  for (std::size_t band : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    TracebackParams params;
    params.band = band;
    auto e1 = banded_traceback(empty, acgt, s, params);
    auto e2 = banded_traceback(acgt, empty, s, params);
    auto e3 = banded_traceback(empty, empty, s, params);
    for (const auto* r : {&e1, &e2, &e3}) {
      EXPECT_EQ(r->traced.end.score, 0);
      EXPECT_TRUE(r->traced.cigar.empty());
      EXPECT_EQ(r->stats.cells(), 0u);
    }

    auto single = banded_traceback(one, one, s, params);
    EXPECT_EQ(single.traced.end.score, s.match);
    EXPECT_EQ(single.traced.cigar, "1M");
    EXPECT_EQ(single.traced.ref_start, 0);
    EXPECT_EQ(single.traced.query_start, 0);
  }

  // All-mismatch pair: empty local alignment everywhere.
  std::vector<seq::BaseCode> aaaa(16, 0), cccc(16, 1);
  auto none = banded_traceback(aaaa, cccc, s, TracebackParams{});
  EXPECT_EQ(none.traced.end.score, 0);
  EXPECT_TRUE(none.traced.cigar.empty());

  // Identical sequences: one long match run.
  auto same = banded_traceback(acgt, acgt, s, TracebackParams{});
  EXPECT_EQ(same.traced.cigar, "4M");
}

TEST(TracebackFuzz, CheckpointSpacingNeverChangesTheAnswer) {
  Fuzz fuzz(9400);
  ScoringScheme s;
  for (int trial = 0; trial < 30; ++trial) {
    auto [ref, query] = fuzz.next_pair(200);
    TracebackParams base;
    base.band = 16;
    base.checkpoint_rows = 1;
    auto want = banded_traceback(ref, query, s, base);
    for (std::size_t chk : {std::size_t{2}, std::size_t{7}, std::size_t{64},
                            std::size_t{1024}, std::size_t{0}}) {
      TracebackParams p = base;
      p.checkpoint_rows = chk;
      auto got = banded_traceback(ref, query, s, p);
      expect_same(got.traced, want.traced, "checkpoint", trial);
      // Forward work is spacing-independent; only the replay varies.
      EXPECT_EQ(got.stats.forward_cells, want.stats.forward_cells);
    }
  }
}

}  // namespace
}  // namespace saloba::align
