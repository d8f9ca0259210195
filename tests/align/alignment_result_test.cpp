#include "align/alignment_result.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace saloba::align {
namespace {

TEST(AlignmentResult, ImprovesPrefersHigherScore) {
  AlignmentResult low{5, 0, 0}, high{9, 100, 100};
  EXPECT_TRUE(improves(high, low));
  EXPECT_FALSE(improves(low, high));
}

TEST(AlignmentResult, ImprovesTieBreaksOnRefEndThenQueryEnd) {
  AlignmentResult a{7, 3, 9}, b{7, 5, 1};
  EXPECT_TRUE(improves(a, b));   // smaller ref_end wins
  EXPECT_FALSE(improves(b, a));
  AlignmentResult c{7, 3, 2};
  EXPECT_TRUE(improves(c, a));   // same ref_end, smaller query_end wins
}

TEST(AlignmentResult, ImprovesIsIrreflexive) {
  AlignmentResult r{4, 2, 2};
  EXPECT_FALSE(improves(r, r));
}

TEST(AlignmentResult, OrderingIsTotalOnRandomSamples) {
  // improves() must behave like a strict weak ordering so that any scan
  // order yields the same winner.
  util::Xoshiro256 rng(77);
  std::vector<AlignmentResult> rs;
  for (int i = 0; i < 60; ++i) {
    rs.push_back(AlignmentResult{static_cast<Score>(rng.below(5)),
                                 static_cast<std::int32_t>(rng.below(6)),
                                 static_cast<std::int32_t>(rng.below(6))});
  }
  for (const auto& a : rs) {
    for (const auto& b : rs) {
      // Antisymmetry.
      EXPECT_FALSE(improves(a, b) && improves(b, a));
      for (const auto& c : rs) {
        // Transitivity.
        if (improves(a, b) && improves(b, c)) {
          EXPECT_TRUE(improves(a, c));
        }
      }
    }
  }
}

TEST(AlignmentResult, ScanOrderIndependentWinner) {
  util::Xoshiro256 rng(78);
  std::vector<AlignmentResult> rs;
  for (int i = 0; i < 40; ++i) {
    rs.push_back(AlignmentResult{static_cast<Score>(rng.below(4)),
                                 static_cast<std::int32_t>(rng.below(8)),
                                 static_cast<std::int32_t>(rng.below(8))});
  }
  AlignmentResult forward;
  for (const auto& r : rs) take_better(forward, r);
  AlignmentResult backward;
  for (auto it = rs.rbegin(); it != rs.rend(); ++it) take_better(backward, *it);
  if (forward.score > 0) {
    EXPECT_EQ(forward, backward);
  }
}

TEST(AlignmentResult, FormatMentionsFields) {
  AlignmentResult r{42, 7, 9};
  std::string s = format_result(r);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("ref_end=7"), std::string::npos);
  EXPECT_NE(s.find("query_end=9"), std::string::npos);
}

TEST(AlignmentResult, DefaultIsEmptyAlignment) {
  AlignmentResult r;
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.ref_end, -1);
  EXPECT_EQ(r.query_end, -1);
}

}  // namespace
}  // namespace saloba::align
