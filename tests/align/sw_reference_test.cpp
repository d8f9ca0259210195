#include "align/sw_reference.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {
namespace {

using seq::encode_string;

TEST(SmithWaterman, EmptyInputsScoreZero) {
  ScoringScheme s;
  std::vector<seq::BaseCode> empty;
  auto r = smith_waterman(empty, encode_string("ACGT"), s);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.ref_end, -1);
  r = smith_waterman(encode_string("ACGT"), empty, s);
  EXPECT_EQ(r.score, 0);
}

TEST(SmithWaterman, SingleBaseMatch) {
  ScoringScheme s;
  auto r = smith_waterman(encode_string("A"), encode_string("A"), s);
  EXPECT_EQ(r.score, 1);
  EXPECT_EQ(r.ref_end, 0);
  EXPECT_EQ(r.query_end, 0);
}

TEST(SmithWaterman, SingleBaseMismatchIsEmptyAlignment) {
  ScoringScheme s;
  auto r = smith_waterman(encode_string("A"), encode_string("C"), s);
  EXPECT_EQ(r.score, 0);
}

TEST(SmithWaterman, IdenticalStringsScoreFullMatch) {
  ScoringScheme s;
  auto codes = encode_string("GATTACAGATTACA");
  auto r = smith_waterman(codes, codes, s);
  EXPECT_EQ(r.score, static_cast<Score>(codes.size()) * s.match);
  EXPECT_EQ(r.ref_end, static_cast<std::int32_t>(codes.size()) - 1);
}

TEST(SmithWaterman, SubstringFindsItself) {
  ScoringScheme s;
  auto ref = encode_string("TTTTGATTACATTTT");
  auto query = encode_string("GATTACA");
  auto r = smith_waterman(ref, query, s);
  EXPECT_EQ(r.score, 7);
  EXPECT_EQ(r.ref_end, 10);  // end of GATTACA within ref
  EXPECT_EQ(r.query_end, 6);
}

TEST(SmithWaterman, HandComputedMismatchCase) {
  // ACGT vs AGGT: best local alignment is GT (2) or A..? A + mismatch C/G
  // (-4) would go negative; with match 1, best = "GT" = 2.
  ScoringScheme s;
  auto r = smith_waterman(encode_string("ACGT"), encode_string("AGGT"), s);
  EXPECT_EQ(r.score, 2);
}

TEST(SmithWaterman, AffineGapPreferredOverTwoOpens) {
  // Long matching flanks around a 3-base deletion: bridging the gap (48
  // matches − alpha − 2·beta) beats aligning either flank alone (24).
  ScoringScheme s;
  const std::string left = "ACGTTGCAACGTTGCAACGTTGCA";
  const std::string right = "GGATCCTTGGATCCTTGGATCCTT";
  auto ref = encode_string(left + "CCC" + right);
  auto query = encode_string(left + right);  // CCC deleted
  auto r = smith_waterman(ref, query, s);
  Score expected = 48 * s.match - (s.alpha() + 2 * s.beta());
  EXPECT_EQ(r.score, expected);
}

TEST(SmithWaterman, GapInQueryDirection) {
  ScoringScheme s;
  const std::string left = "ACGTTGCAACGTTGCAACGTTGCA";
  const std::string right = "GGATCCTTGGATCCTTGGATCCTT";
  auto ref = encode_string(left + right);
  auto query = encode_string(left + "TT" + right);  // TT inserted
  auto r = smith_waterman(ref, query, s);
  Score expected = 48 * s.match - (s.alpha() + s.beta());
  EXPECT_EQ(r.score, expected);
}

TEST(SmithWaterman, TieBreakPicksSmallestRefEnd) {
  // Two equal-scoring occurrences; the first (smaller i) must be reported.
  ScoringScheme s;
  auto ref = encode_string("ACGTTTTTACGT");
  auto query = encode_string("ACGT");
  auto r = smith_waterman(ref, query, s);
  EXPECT_EQ(r.score, 4);
  EXPECT_EQ(r.ref_end, 3);
}

TEST(SmithWaterman, ScoreSymmetricUnderSwap) {
  util::Xoshiro256 rng(21);
  for (int i = 0; i < 30; ++i) {
    auto a = saloba::testing::random_seq(rng, 20 + rng.below(60));
    auto b = saloba::testing::random_seq(rng, 20 + rng.below(60));
    ScoringScheme s;
    EXPECT_EQ(smith_waterman(a, b, s).score, smith_waterman(b, a, s).score);
  }
}

TEST(SmithWaterman, AppendingNeverDecreasesScore) {
  util::Xoshiro256 rng(22);
  ScoringScheme s;
  auto query = saloba::testing::random_seq(rng, 40);
  std::vector<seq::BaseCode> ref;
  Score prev = 0;
  for (int i = 0; i < 200; ++i) {
    ref.push_back(static_cast<seq::BaseCode>(rng.below(4)));
    Score cur = smith_waterman(ref, query, s).score;
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(SmithWaterman, MatrixMaxAgreesWithStreaming) {
  util::Xoshiro256 rng(23);
  for (int i = 0; i < 25; ++i) {
    auto ref = saloba::testing::random_seq(rng, 10 + rng.below(80));
    auto query = saloba::testing::random_seq(rng, 10 + rng.below(80));
    ScoringScheme s;
    auto r = smith_waterman(ref, query, s);
    auto h = smith_waterman_matrix(ref, query, s);
    Score max = 0;
    for (Score v : h) max = std::max(max, v);
    EXPECT_EQ(r.score, max);
  }
}

TEST(SmithWaterman, NInRefNeverMatches) {
  ScoringScheme s;
  auto r = smith_waterman(encode_string("NNNN"), encode_string("NNNN"), s);
  EXPECT_EQ(r.score, 0);
}

// Parameterized sweep across scoring schemes: reference invariants hold for
// non-default parameters too.
struct SchemeCase {
  Score match, mismatch, open, extend;
};

class SchemeSweep : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeSweep, LocalScoreBoundsAndSymmetry) {
  auto param = GetParam();
  ScoringScheme s;
  s.match = param.match;
  s.mismatch = param.mismatch;
  s.gap_open = param.open;
  s.gap_extend = param.extend;
  ASSERT_TRUE(s.valid());

  util::Xoshiro256 rng(31);
  for (int i = 0; i < 10; ++i) {
    auto a = saloba::testing::random_seq(rng, 16 + rng.below(48));
    auto b = saloba::testing::random_seq(rng, 16 + rng.below(48));
    auto r = smith_waterman(a, b, s);
    EXPECT_GE(r.score, 0);
    EXPECT_LE(r.score,
              static_cast<Score>(std::min(a.size(), b.size())) * s.match);
    EXPECT_EQ(r.score, smith_waterman(b, a, s).score);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeSweep,
                         ::testing::Values(SchemeCase{1, 4, 6, 1}, SchemeCase{2, 5, 4, 2},
                                           SchemeCase{3, 2, 5, 2}, SchemeCase{1, 1, 1, 1},
                                           SchemeCase{5, 4, 10, 1}));

}  // namespace
}  // namespace saloba::align
