#include "align/sw_banded.hpp"

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_reference.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {
namespace {

TEST(BandedSW, FullWidthBandEqualsReference) {
  util::Xoshiro256 rng(41);
  ScoringScheme s;
  for (int i = 0; i < 25; ++i) {
    auto ref = saloba::testing::random_seq(rng, 10 + rng.below(90));
    auto query = saloba::testing::random_seq(rng, 10 + rng.below(90));
    auto full = smith_waterman(ref, query, s);
    auto banded = smith_waterman_banded(ref, query, s, std::max(ref.size(), query.size()));
    EXPECT_EQ(banded.result, full);
  }
}

TEST(BandedSW, NarrowBandFindsNearDiagonalAlignment) {
  ScoringScheme s;
  auto ref = seq::encode_string("ACGTACGTACGTACGT");
  auto query = ref;  // identical: alignment sits exactly on the diagonal
  auto banded = smith_waterman_banded(ref, query, s, 1);
  EXPECT_EQ(banded.result.score, 16);
}

TEST(BandedSW, BandLimitsCellsComputed) {
  ScoringScheme s;
  util::Xoshiro256 rng(42);
  auto ref = saloba::testing::random_seq(rng, 200);
  auto query = saloba::testing::random_seq(rng, 200);
  auto banded = smith_waterman_banded(ref, query, s, 10);
  EXPECT_LE(banded.cells_computed, 200u * 21u);
  auto full = smith_waterman_banded(ref, query, s, 200);
  EXPECT_EQ(full.cells_computed, 200u * 200u);
}

TEST(BandedSW, ScoreMonotoneInBandWidth) {
  util::Xoshiro256 rng(43);
  ScoringScheme s;
  for (int i = 0; i < 10; ++i) {
    auto ref = saloba::testing::random_seq(rng, 120);
    auto query = saloba::testing::mutate(rng, ref, 0.1);
    Score prev = 0;
    for (std::size_t band : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
      auto banded = smith_waterman_banded(ref, query, s, band);
      EXPECT_GE(banded.result.score, prev);
      prev = banded.result.score;
    }
  }
}

TEST(BandedSW, BandedNeverExceedsFull) {
  util::Xoshiro256 rng(44);
  ScoringScheme s;
  for (int i = 0; i < 15; ++i) {
    auto ref = saloba::testing::random_seq(rng, 30 + rng.below(100));
    auto query = saloba::testing::random_seq(rng, 30 + rng.below(100));
    auto full = smith_waterman(ref, query, s);
    for (std::size_t band : {2u, 8u, 24u}) {
      EXPECT_LE(smith_waterman_banded(ref, query, s, band).result.score, full.score);
    }
  }
}

TEST(BandedSW, EmptyInputs) {
  ScoringScheme s;
  std::vector<seq::BaseCode> empty;
  auto r = smith_waterman_banded(empty, seq::encode_string("ACGT"), s, 4);
  EXPECT_EQ(r.result.score, 0);
  EXPECT_EQ(r.cells_computed, 0u);
}

TEST(BandedSW, ZeroBandComputesTheFullTable) {
  // band == 0 is seq::PairBatch::band_of's "unbanded": exact Smith–Waterman
  // over every cell.
  util::Xoshiro256 rng(45);
  ScoringScheme s;
  auto ref = saloba::testing::random_seq(rng, 70);
  auto query = saloba::testing::random_seq(rng, 90);
  auto banded = smith_waterman_banded(ref, query, s, 0);
  EXPECT_EQ(banded.result, smith_waterman(ref, query, s));
  EXPECT_EQ(banded.cells_computed, ref.size() * query.size());
}

}  // namespace
}  // namespace saloba::align
