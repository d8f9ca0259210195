// Property/fuzz coverage for the banded extension primitive: randomized
// (seeded) pairs asserting the algebraic laws the pipeline relies on rather
// than point values — widening a band can only ever help a banded score and
// never computes fewer cells.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"

namespace saloba::align {
namespace {

struct Fuzz {
  util::Xoshiro256 rng;
  explicit Fuzz(std::uint64_t seed) : rng(seed) {}

  /// A (ref, query) pair that looks like an extension job: the query is a
  /// mutated prefix of the reference window about half the time, pure
  /// noise otherwise, so both decaying and growing score trajectories occur.
  std::pair<std::vector<seq::BaseCode>, std::vector<seq::BaseCode>> next_pair(
      std::size_t max_len) {
    std::size_t n = 1 + rng.below(max_len);
    std::size_t m = 1 + rng.below(max_len);
    auto ref = saloba::testing::random_seq(rng, n);
    std::vector<seq::BaseCode> query;
    if (m <= n && rng.bernoulli(0.5)) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(m));
      query = saloba::testing::mutate(rng, query, 0.05 + 0.2 * rng.uniform());
    } else {
      query = saloba::testing::random_seq(rng, m);
    }
    return {std::move(ref), std::move(query)};
  }
};

TEST(BandedProperties, WideningTheBandNeverLowersTheScore) {
  Fuzz fuzz(6400);
  ScoringScheme s;
  for (int trial = 0; trial < 50; ++trial) {
    auto [ref, query] = fuzz.next_pair(140);
    const std::size_t covering = std::max(ref.size(), query.size());
    Score prev = std::numeric_limits<Score>::min();
    for (std::size_t band = 1; band < covering; band = band * 2 + 1) {
      auto got = smith_waterman_banded(ref, query, s, band);
      EXPECT_GE(got.result.score, prev)
          << "trial " << trial << " band " << band << " n=" << ref.size()
          << " m=" << query.size();
      prev = got.result.score;
    }
    // A covering band tops the ladder and is exactly full Smith-Waterman.
    auto widest = smith_waterman_banded(ref, query, s, covering);
    EXPECT_GE(widest.result.score, prev) << "trial " << trial;
    EXPECT_EQ(widest.result, smith_waterman(ref, query, s)) << "trial " << trial;
  }
}

TEST(BandedProperties, WideningTheBandNeverComputesFewerCells) {
  Fuzz fuzz(6500);
  ScoringScheme s;
  for (int trial = 0; trial < 30; ++trial) {
    auto [ref, query] = fuzz.next_pair(100);
    std::size_t prev = 0;
    for (std::size_t band : {1u, 4u, 16u, 64u, 256u}) {
      auto got = smith_waterman_banded(ref, query, s, band);
      EXPECT_GE(got.cells_computed, prev) << "trial " << trial << " band " << band;
      prev = got.cells_computed;
      EXPECT_EQ(got.cells_computed, seq::banded_cells(ref.size(), query.size(), band));
    }
  }
}

}  // namespace
}  // namespace saloba::align
