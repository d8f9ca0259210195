// Differential conformance suite for the inter-sequence SIMD engine
// (align::simd::align_batch): every cohort shape, band, and rescue tier
// must be bit-identical — scores, endpoints, cell counts — to
// the scalar oracles (align::align_batch / smith_waterman_banded /
// smith_waterman). `ctest -L simd`.
#include "align/simd_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align {
namespace {

/// Oracle results + oracle cell count for a batch (the scalar CPU path the
/// whole stack is locked to).
struct Oracle {
  std::vector<AlignmentResult> results;
  std::size_t cells = 0;
};

Oracle oracle_of(const seq::PairBatch& batch, const ScoringScheme& scoring) {
  Oracle o;
  BatchTiming timing;
  o.results = align_batch(batch, scoring, &timing, /*threads=*/1);
  o.cells = timing.cells;
  return o;
}

void expect_identical(const seq::PairBatch& batch, const ScoringScheme& scoring,
                      const char* what) {
  const Oracle want = oracle_of(batch, scoring);
  simd::EngineStats stats;
  const auto got = simd::align_batch(batch, scoring, &stats, /*threads=*/1);
  ASSERT_EQ(got.size(), want.results.size()) << what;
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p].score, want.results[p].score) << what << " pair " << p;
    EXPECT_EQ(got[p].ref_end, want.results[p].ref_end) << what << " pair " << p;
    EXPECT_EQ(got[p].query_end, want.results[p].query_end) << what << " pair " << p;
  }
  EXPECT_EQ(stats.cells, want.cells) << what << ": cell accounting diverged";
  EXPECT_EQ(stats.pairs, batch.size()) << what;
  std::size_t empties = 0;
  for (std::size_t p = 0; p < batch.size(); ++p) {
    if (batch.refs[p].empty() || batch.queries[p].empty()) ++empties;
  }
  EXPECT_EQ(stats.pairs_8bit + stats.rescued_16bit + stats.rescued_32bit,
            batch.size() - empties)
      << what << ": ladder tiers must partition the non-empty pairs";
}

TEST(SimdConformance, CohortWidthsUnbanded) {
  ScoringScheme s;
  for (std::size_t pairs : {1u, 5u, 16u, 32u, 33u, 70u}) {
    auto batch = saloba::testing::related_batch(900 + pairs, pairs, 90, 120);
    expect_identical(batch, s, "unbanded cohort");
  }
}

TEST(SimdConformance, ImbalancedLengthsWithN) {
  ScoringScheme s;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    util::Xoshiro256 rng(seed);
    seq::PairBatch batch;
    for (int p = 0; p < 48; ++p) {
      batch.add(saloba::testing::random_seq_with_n(rng, rng.below(180), 0.1),
                saloba::testing::random_seq_with_n(rng, rng.below(220), 0.1));
    }
    expect_identical(batch, s, "imbalanced+N");
  }
}

TEST(SimdConformance, BandSweep) {
  ScoringScheme s;
  for (std::size_t band : {1u, 8u, 100000u}) {
    util::Xoshiro256 rng(40 + band);
    seq::PairBatch batch;
    for (int p = 0; p < 40; ++p) {
      auto ref = saloba::testing::random_seq(rng, 60 + rng.below(120));
      auto query = saloba::testing::mutate(
          rng,
          std::vector<seq::BaseCode>(ref.begin(),
                                     ref.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min<std::size_t>(
                                                           ref.size(), 50 + rng.below(60)))),
          0.12);
      batch.add(std::move(query), std::move(ref), band);
    }
    expect_identical(batch, s, "band sweep");
  }
}

TEST(SimdConformance, MixedPerPairBands) {
  ScoringScheme s;
  util::Xoshiro256 rng(77);
  seq::PairBatch batch;
  const std::size_t bands[] = {0, 1, 3, 8, 64, 100000};
  for (int p = 0; p < 60; ++p) {
    auto ref = saloba::testing::random_seq(rng, 40 + rng.below(160));
    auto query = saloba::testing::random_seq(rng, 40 + rng.below(160));
    batch.add(std::move(query), std::move(ref), bands[static_cast<std::size_t>(p) % 6]);
  }
  expect_identical(batch, s, "mixed per-pair bands");
}

TEST(SimdConformance, RescueLadder8To16) {
  // High-identity pairs long enough that scores blow through 255: every
  // pair must be evicted from the 8-bit pass and settle identically in the
  // 16-bit pass.
  ScoringScheme s;
  auto batch = saloba::testing::related_batch(600, 24, 500, 520);
  const Oracle want = oracle_of(batch, s);
  simd::EngineStats stats;
  const auto got = simd::align_batch(batch, s, &stats, 1);
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p], want.results[p]) << "pair " << p;
    ASSERT_GT(got[p].score, 255) << "test needs saturating scores to mean anything";
  }
  EXPECT_EQ(stats.rescued_16bit, batch.size());
  EXPECT_EQ(stats.pairs_8bit, 0u);
  EXPECT_EQ(stats.cells, want.cells);
}

TEST(SimdConformance, RescueLadderTo32Bit) {
  // A huge match bonus pushes scores past 65535 on short pairs: both
  // saturating tiers overflow and the int32 scalar path must settle them.
  ScoringScheme s;
  s.match = 1000;
  auto batch = saloba::testing::related_batch(601, 12, 90, 110);
  const Oracle want = oracle_of(batch, s);
  simd::EngineStats stats;
  const auto got = simd::align_batch(batch, s, &stats, 1);
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p], want.results[p]) << "pair " << p;
    ASSERT_GT(got[p].score, 65535);
  }
  EXPECT_EQ(stats.rescued_32bit, batch.size());
  EXPECT_EQ(stats.cells, want.cells);
}

TEST(SimdConformance, RescueLadderMixedTiers) {
  // One batch spanning all three tiers (plus banded flavors).
  ScoringScheme s;
  util::Xoshiro256 rng(602);
  seq::PairBatch batch;
  for (int p = 0; p < 36; ++p) {
    const std::size_t len = p % 3 == 0 ? 60 : (p % 3 == 1 ? 400 : 150);
    auto ref = saloba::testing::random_seq(rng, len + 20);
    std::vector<seq::BaseCode> query(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(len));
    query = saloba::testing::mutate(rng, query, p % 3 == 2 ? 0.5 : 0.02);
    batch.add(std::move(query), std::move(ref), p % 4 == 0 ? 16 : 0);
  }
  expect_identical(batch, s, "mixed tiers");
}

TEST(SimdConformance, OversizePairsRouteToScalar) {
  ScoringScheme s;
  util::Xoshiro256 rng(603);
  seq::PairBatch batch;
  // One reference beyond the 16-bit index guard, plus normal companions.
  batch.add(saloba::testing::random_seq(rng, 80), saloba::testing::random_seq(rng, 33000),
            /*band=*/40);
  for (int p = 0; p < 7; ++p) {
    batch.add(saloba::testing::random_seq(rng, 100), saloba::testing::random_seq(rng, 120));
  }
  const Oracle want = oracle_of(batch, s);
  simd::EngineStats stats;
  const auto got = simd::align_batch(batch, s, &stats, 1);
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p], want.results[p]) << "pair " << p;
  }
  EXPECT_GE(stats.rescued_32bit, 1u);
  EXPECT_EQ(stats.cells, want.cells);
}

TEST(SimdConformance, EmptyAndDegeneratePairs) {
  ScoringScheme s;
  seq::PairBatch batch;
  batch.add({}, seq::encode_string("ACGT"));
  batch.add(seq::encode_string("ACGT"), {});
  batch.add({}, {});
  batch.add(seq::encode_string("A"), seq::encode_string("A"));
  batch.add(seq::encode_string("T"), seq::encode_string("A"));
  expect_identical(batch, s, "degenerate");
}

TEST(SimdConformance, NonDefaultScoringSchemes) {
  ScoringScheme tweaked;
  tweaked.match = 3;
  tweaked.mismatch = 2;
  tweaked.gap_open = 4;
  tweaked.gap_extend = 2;
  auto batch = saloba::testing::imbalanced_batch(604, 50, 1, 200);
  expect_identical(batch, tweaked, "tweaked scheme");
}

TEST(SimdConformance, SingleCellsAgainstReference) {
  // Tiny direct spot-checks against the per-pair scalar reference.
  ScoringScheme s;
  util::Xoshiro256 rng(605);
  seq::PairBatch batch;
  for (int p = 0; p < 64; ++p) {
    batch.add(saloba::testing::random_seq(rng, 1 + rng.below(4)),
              saloba::testing::random_seq(rng, 1 + rng.below(4)));
  }
  const auto got = simd::align_batch(batch, s, nullptr, 1);
  for (std::size_t p = 0; p < batch.size(); ++p) {
    EXPECT_EQ(got[p], smith_waterman(batch.refs[p], batch.queries[p], s)) << "pair " << p;
  }
}

TEST(SimdConformance, ThreadedMatchesSingleThread) {
  ScoringScheme s;
  auto batch = saloba::testing::imbalanced_batch(606, 120, 10, 250);
  const auto single = simd::align_batch(batch, s, nullptr, 1);
  const auto teamed = simd::align_batch(batch, s, nullptr, 0);
  EXPECT_EQ(single, teamed);
}

TEST(SimdConformance, IsaReportingIsConsistent) {
  simd::EngineStats stats;
  auto batch = saloba::testing::related_batch(607, 8, 50, 60);
  simd::align_batch(batch, ScoringScheme{}, &stats, 1);
  const bool expect_avx2 = simd::compiled_with_avx2() && simd::cpu_supports_avx2();
  EXPECT_EQ(stats.avx2, expect_avx2);
  EXPECT_STREQ(simd::isa_name(), expect_avx2 ? "avx2" : "generic");
}

}  // namespace
}  // namespace saloba::align
