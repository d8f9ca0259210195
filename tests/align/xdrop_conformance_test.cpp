// Conformance layer for the long-read X-drop wavefront engine: pruning off
// == exact Smith-Waterman, an effectively-infinite X-drop prunes nothing, the
// three-way oracle (row-major reference / banded / unpruned wavefront) holds
// on short and degenerate pairs, and traced output rescores exactly.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "align/traceback.hpp"
#include "align/xdrop_reference.hpp"
#include "align/xdrop_wavefront.hpp"
#include "seq/alphabet.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace saloba::align {
namespace {

constexpr Score kHugeThreshold = 1 << 20;

std::vector<seq::BaseCode> related_query(util::Xoshiro256& rng,
                                         const std::vector<seq::BaseCode>& ref,
                                         std::size_t len, double rate) {
  std::vector<seq::BaseCode> q(ref.begin(),
                               ref.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(len, ref.size())));
  return saloba::testing::mutate(rng, q, rate);
}

TEST(XdropConformance, DisabledPruningIsExactSmithWaterman) {
  ScoringScheme s;
  util::Xoshiro256 rng(901);
  for (int it = 0; it < 30; ++it) {
    const std::size_t n = 1 + rng.below(120);
    const std::size_t m = 1 + rng.below(120);
    auto ref = saloba::testing::random_seq_with_n(rng, n, 0.03);
    auto query = m <= n ? related_query(rng, ref, m, 0.12)
                        : saloba::testing::random_seq_with_n(rng, m, 0.03);
    WavefrontStats stats;
    const auto got = xdrop_wavefront_score(ref, query, s, XDropParams{.xdrop = 0}, &stats);
    EXPECT_EQ(got, smith_waterman(ref, query, s)) << "it=" << it;
    EXPECT_FALSE(stats.xdropped);
    // The traced engine walks the same canonical path as the full-matrix
    // Smith-Waterman traceback: start and CIGAR included.
    EXPECT_EQ(xdrop_wavefront_align(ref, query, s, XDropParams{.xdrop = 0}),
              smith_waterman_traceback(ref, query, s))
        << "it=" << it;
  }
}

TEST(XdropConformance, InfiniteXdropAgreesWithExact) {
  ScoringScheme s;
  util::Xoshiro256 rng(902);
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 20 + rng.below(150);
    auto ref = saloba::testing::random_seq(rng, n);
    auto query = related_query(rng, ref, n - 5, 0.15);

    const auto exact = smith_waterman(ref, query, s);
    WavefrontStats stats;
    const auto xd = xdrop_wavefront_score(ref, query, s,
                                          XDropParams{.xdrop = kHugeThreshold}, &stats);

    // With the threshold effectively infinite X-drop prunes nothing: it and
    // the exact sweep are one result.
    EXPECT_EQ(xd, exact);
    EXPECT_FALSE(stats.xdropped);
  }
}

TEST(XdropConformance, ThreeWayOracleHoldsOnShortPairs) {
  ScoringScheme s;
  auto expect_three_way = [&](const std::vector<seq::BaseCode>& ref,
                              const std::vector<seq::BaseCode>& query, const std::string& label) {
    const auto reference = smith_waterman(ref, query, s);
    const auto banded = smith_waterman_banded(ref, query, s, 0);
    const auto wavefront = xdrop_wavefront_score(ref, query, s, XDropParams{0});
    EXPECT_EQ(wavefront, reference) << label;
    EXPECT_EQ(banded.result, reference) << label;
  };

  util::Xoshiro256 rng(903);
  for (int it = 0; it < 40; ++it) {
    const std::size_t n = 1 + rng.below(80);
    const std::size_t m = 1 + rng.below(80);
    auto ref = saloba::testing::random_seq_with_n(rng, n, 0.05);
    auto query = m <= n ? related_query(rng, ref, m, 0.1)
                        : saloba::testing::random_seq_with_n(rng, m, 0.05);
    expect_three_way(ref, query, "it=" + std::to_string(it));
  }

  // Degenerate tables: the empty pair and single-row / single-column sweeps.
  expect_three_way({}, {}, "empty pair");
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{1, 50}, {50, 1}}) {
    for (int it = 0; it < 8; ++it) {
      auto ref = saloba::testing::random_seq(rng, n);
      auto query = m <= n ? related_query(rng, ref, m, 0.1) : saloba::testing::random_seq(rng, m);
      expect_three_way(ref, query, std::to_string(n) + "x" + std::to_string(m));
    }
  }

  // N-heavy inputs: 20% ambiguous bases on both sides.
  for (int it = 0; it < 10; ++it) {
    auto ref = saloba::testing::random_seq_with_n(rng, 60, 0.2);
    auto query = saloba::testing::random_seq_with_n(rng, 60, 0.2);
    expect_three_way(ref, query, "N-heavy it=" + std::to_string(it));
  }
}

TEST(XdropConformance, TracedOutputRescoresToReportedScore) {
  ScoringScheme s;
  util::Xoshiro256 rng(904);
  for (const Score xdrop : {Score{0}, Score{20}, Score{60}, kHugeThreshold}) {
    for (int it = 0; it < 12; ++it) {
      const std::size_t n = 10 + rng.below(120);
      auto ref = saloba::testing::random_seq(rng, n);
      auto query = related_query(rng, ref, n, 0.1);

      const XDropParams params{.xdrop = xdrop};
      const auto scored = xdrop_wavefront_score(ref, query, s, params);
      const auto traced = xdrop_wavefront_align(ref, query, s, params);
      EXPECT_EQ(traced.end, scored);
      if (scored.score > 0) {
        EXPECT_TRUE(cigar_consistent(traced, ref.size(), query.size()));
        EXPECT_EQ(rescore_cigar(traced, ref, query, s), scored.score);
      } else {
        EXPECT_TRUE(traced.cigar.empty());
      }
    }
  }
}

TEST(XdropConformance, KnownCaseBitIdenticalToFullMatrixOracle) {
  ScoringScheme s;
  const auto ref = seq::encode_string("TTTTGATTACATTTTACGTACGTGGGG");
  const auto query = seq::encode_string("GATTACAACGTACGT");
  for (const Score xdrop : {Score{0}, Score{5}, Score{15}, kHugeThreshold}) {
    const XDropParams params{.xdrop = xdrop};
    EXPECT_EQ(xdrop_wavefront_score(ref, query, s, params),
              xdrop_reference_score(ref, query, s, params));
    EXPECT_EQ(xdrop_wavefront_align(ref, query, s, params),
              xdrop_reference_align(ref, query, s, params))
        << "xdrop=" << xdrop;
  }
}

TEST(XdropConformance, PrunedScoreNeverExceedsExact) {
  ScoringScheme s;
  util::Xoshiro256 rng(905);
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 40 + rng.below(100);
    auto ref = saloba::testing::random_seq(rng, n);
    auto query = saloba::testing::random_seq(rng, n);
    const auto exact = smith_waterman(ref, query, s);
    for (const Score xdrop : {Score{5}, Score{15}, Score{40}}) {
      const auto pruned = xdrop_wavefront_score(ref, query, s, XDropParams{.xdrop = xdrop});
      EXPECT_LE(pruned.score, exact.score);
    }
  }
}

TEST(XdropConformance, DegenerateInputs) {
  ScoringScheme s;
  const std::vector<seq::BaseCode> empty;
  const auto acgt = seq::encode_string("ACGTACGT");
  EXPECT_EQ(xdrop_wavefront_score(empty, acgt, s).score, 0);
  EXPECT_EQ(xdrop_wavefront_score(acgt, empty, s).score, 0);
  EXPECT_EQ(xdrop_wavefront_score(empty, empty, s).score, 0);

  // N never matches anything, so an all-N pair has no positive cell.
  const std::vector<seq::BaseCode> all_n(30, seq::kBaseN);
  const auto traced = xdrop_wavefront_align(all_n, all_n, s, XDropParams{.xdrop = 10});
  EXPECT_EQ(traced.end, AlignmentResult{});
  EXPECT_TRUE(traced.cigar.empty());
}

TEST(XdropConformance, CellsEstimateIsBoundedAndShrinksWithXdrop) {
  ScoringScheme s;
  EXPECT_EQ(xdrop_cells_estimate(0, 100, 50, s), 0u);
  EXPECT_LE(xdrop_cells_estimate(100, 100, 0, s), 100u * 100u);
  const std::size_t wide = xdrop_cells_estimate(100000, 100000, 0, s);
  const std::size_t tight = xdrop_cells_estimate(100000, 100000, 100, s);
  EXPECT_LT(tight, wide);
  // The pruned estimate is linear-ish in N + M, nowhere near the full table.
  EXPECT_LT(tight, 100000ull * 1000ull);
}

}  // namespace
}  // namespace saloba::align
