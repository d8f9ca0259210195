#include "align/sw_striped.hpp"

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_reference.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {
namespace {

TEST(StripedSW, KnownCases) {
  ScoringScheme s;
  EXPECT_EQ(smith_waterman_striped_ends(seq::encode_string("TTTTGATTACATTTT"),
                                        seq::encode_string("GATTACA"), s)
                .score,
            7);
  EXPECT_EQ(smith_waterman_striped_ends(seq::encode_string("AAAA"), seq::encode_string("CCCC"),
                                        s)
                .score,
            0);
  EXPECT_EQ(smith_waterman_striped_ends({}, seq::encode_string("ACGT"), s).score, 0);
}

TEST(StripedSW, GapCases) {
  ScoringScheme s;
  const std::string left = "ACGTTGCAACGTTGCAACGTTGCA";
  const std::string right = "GGATCCTTGGATCCTTGGATCCTT";
  auto ref = seq::encode_string(left + "CCC" + right);
  auto query = seq::encode_string(left + right);
  EXPECT_EQ(smith_waterman_striped_ends(ref, query, s).score,
            smith_waterman(ref, query, s).score);
}

struct StripedCase {
  std::size_t n, m;
  double mutate;
};

class StripedSweep : public ::testing::TestWithParam<StripedCase> {};

TEST_P(StripedSweep, MatchesScalarReference) {
  auto param = GetParam();
  ScoringScheme s;
  util::Xoshiro256 rng(300 + param.n * 7 + param.m);
  for (int trial = 0; trial < 10; ++trial) {
    auto ref = saloba::testing::random_seq(rng, param.n);
    std::vector<seq::BaseCode> query;
    if (param.m <= param.n && param.mutate < 1.0) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(param.m));
      query = saloba::testing::mutate(rng, query, param.mutate);
    } else {
      query = saloba::testing::random_seq(rng, param.m);
    }
    EXPECT_EQ(smith_waterman_striped_ends(ref, query, s).score,
              smith_waterman(ref, query, s).score)
        << "n=" << param.n << " m=" << param.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StripedSweep,
    ::testing::Values(StripedCase{1, 1, 1.0}, StripedCase{5, 3, 1.0},
                      StripedCase{16, 8, 0.1}, StripedCase{40, 7, 1.0},
                      StripedCase{7, 40, 1.0}, StripedCase{64, 64, 0.1},
                      StripedCase{100, 33, 0.2}, StripedCase{128, 128, 0.05},
                      StripedCase{200, 150, 0.3}, StripedCase{257, 255, 0.1}));

TEST(StripedSW, GapHeavyInputsStressLazyF) {
  // Long runs of one base force deep F propagation across stripe wraps.
  ScoringScheme s;
  util::Xoshiro256 rng(301);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<seq::BaseCode> ref, query;
    for (int seg = 0; seg < 6; ++seg) {
      auto base = static_cast<seq::BaseCode>(rng.below(4));
      std::size_t run = 3 + rng.below(30);
      ref.insert(ref.end(), run, base);
      if (!rng.bernoulli(0.3)) query.insert(query.end(), run / 2 + 1, base);
    }
    EXPECT_EQ(smith_waterman_striped_ends(ref, query, s).score,
              smith_waterman(ref, query, s).score);
  }
}

TEST(StripedSW, NonDefaultScheme) {
  ScoringScheme s;
  s.match = 3;
  s.mismatch = 2;
  s.gap_open = 4;
  s.gap_extend = 2;
  util::Xoshiro256 rng(302);
  for (int trial = 0; trial < 10; ++trial) {
    auto ref = saloba::testing::random_seq(rng, 90);
    auto query = saloba::testing::mutate(rng, ref, 0.2);
    EXPECT_EQ(smith_waterman_striped_ends(ref, query, s).score,
              smith_waterman(ref, query, s).score);
  }
}

TEST(StripedSW, EndpointsMatchScalarReference) {
  // The ends-reporting variant must reproduce the scalar reference's full
  // (score, ref_end, query_end) triple under the canonical tie-break —
  // including the de-striping of the query index.
  ScoringScheme s;
  util::Xoshiro256 rng(304);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.below(160);
    const std::size_t m = 1 + rng.below(160);
    auto ref = saloba::testing::random_seq(rng, n);
    std::vector<seq::BaseCode> query;
    if (m <= n && !rng.bernoulli(0.3)) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(m));
      query = saloba::testing::mutate(rng, query, 0.15);
    } else {
      query = saloba::testing::random_seq(rng, m);
    }
    EXPECT_EQ(smith_waterman_striped_ends(ref, query, s), smith_waterman(ref, query, s))
        << "n=" << n << " m=" << m;
  }
}

TEST(StripedSW, EndpointsTieBreakOnRepeats) {
  // Repetitive sequences produce many equal-scoring cells; the smallest
  // (ref_end, query_end) must win, exactly as in the scalar reference.
  ScoringScheme s;
  auto ref = seq::encode_string("ACACACACACACACACACAC");
  auto query = seq::encode_string("ACACAC");
  EXPECT_EQ(smith_waterman_striped_ends(ref, query, s), smith_waterman(ref, query, s));
  auto empty_q = std::vector<seq::BaseCode>{};
  EXPECT_EQ(smith_waterman_striped_ends(ref, empty_q, s), AlignmentResult{});
}

TEST(StripedSW, HandlesN) {
  ScoringScheme s;
  util::Xoshiro256 rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    auto ref = saloba::testing::random_seq_with_n(rng, 70, 0.15);
    auto query = saloba::testing::random_seq_with_n(rng, 50, 0.15);
    EXPECT_EQ(smith_waterman_striped_ends(ref, query, s).score,
              smith_waterman(ref, query, s).score);
  }
}

}  // namespace
}  // namespace saloba::align
