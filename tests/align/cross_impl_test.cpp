// Cross-implementation consistency: three independent CPU implementations
// (row-major scalar, anti-diagonal wavefront, banded at full width) must
// agree on score for arbitrary inputs and scoring schemes.
// Any single-implementation bug breaks at least one pairing. The banded
// variants additionally pit smith_waterman_banded's sliding-window sweep
// against a naive masked full-table DP at band ∈ {1, 8, 32, huge}.
#include <gtest/gtest.h>

#include <limits>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "align/xdrop_wavefront.hpp"

namespace saloba::align {
namespace {

/// Independent banded oracle: the full O(n·m) table with out-of-band cells
/// masked to the shared boundary semantics (H = 0, E/F = -inf). Deliberately
/// the dumbest possible implementation — no window arithmetic to share a bug
/// with the production band sweep.
AlignmentResult masked_reference(std::span<const seq::BaseCode> ref,
                                 std::span<const seq::BaseCode> query,
                                 const ScoringScheme& s, std::size_t band) {
  constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  AlignmentResult best;
  if (n == 0 || m == 0) return best;
  std::vector<std::vector<Score>> h(n + 1, std::vector<Score>(m + 1, 0));
  std::vector<std::vector<Score>> e(n + 1, std::vector<Score>(m + 1, kNegInf));
  std::vector<std::vector<Score>> f(n + 1, std::vector<Score>(m + 1, kNegInf));
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const auto di = static_cast<std::int64_t>(i) - 1;
      const auto dj = static_cast<std::int64_t>(j) - 1;
      if (di - dj > static_cast<std::int64_t>(band) ||
          dj - di > static_cast<std::int64_t>(band)) {
        continue;  // out of band: keep the H = 0 / E,F = -inf initial state
      }
      e[i][j] = std::max(h[i][j - 1] - s.alpha(), e[i][j - 1] - s.beta());
      f[i][j] = std::max(h[i - 1][j] - s.alpha(), f[i - 1][j] - s.beta());
      h[i][j] = std::max({Score{0}, h[i - 1][j - 1] + s.substitution(ref[di], query[dj]),
                          e[i][j], f[i][j]});
      if (h[i][j] > best.score) {
        best = AlignmentResult{h[i][j], static_cast<std::int32_t>(di),
                               static_cast<std::int32_t>(dj)};
      }
    }
  }
  return best;
}

struct CrossCase {
  std::uint64_t seed;
  std::size_t max_len;
  double n_prob;
  ScoringScheme scheme;
};

class CrossImpl : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossImpl, AllThreeAgree) {
  auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  for (int trial = 0; trial < 12; ++trial) {
    std::size_t n = 1 + rng.below(param.max_len);
    std::size_t m = 1 + rng.below(param.max_len);
    auto ref = saloba::testing::random_seq_with_n(rng, n, param.n_prob);
    auto query = rng.bernoulli(0.5)
                     ? saloba::testing::random_seq_with_n(rng, m, param.n_prob)
                     : [&] {
                         auto q = ref;
                         q.resize(std::min(m, q.size()));
                         return saloba::testing::mutate(rng, q, 0.15);
                       }();
    if (query.empty()) continue;

    auto scalar = smith_waterman(ref, query, param.scheme);
    auto wavefront = xdrop_wavefront_score(ref, query, param.scheme, XDropParams{0});
    auto banded =
        smith_waterman_banded(ref, query, param.scheme, std::max(ref.size(), query.size()));

    EXPECT_EQ(scalar, wavefront) << "n=" << n << " m=" << m;
    EXPECT_EQ(scalar, banded.result) << "n=" << n << " m=" << m;
  }
}

TEST_P(CrossImpl, BandedAgreesWithMaskedReferenceAcrossBands) {
  // Banded variants of the matrix: every case re-checked at band 1 (hugging
  // the diagonal), 8 (one block), 32, and huge (covers every table, where
  // the masked oracle degenerates to plain Smith-Waterman).
  auto param = GetParam();
  util::Xoshiro256 rng(param.seed + 500000);
  for (int trial = 0; trial < 4; ++trial) {
    std::size_t n = 1 + rng.below(param.max_len);
    std::size_t m = 1 + rng.below(param.max_len);
    auto ref = saloba::testing::random_seq_with_n(rng, n, param.n_prob);
    auto query = rng.bernoulli(0.5)
                     ? saloba::testing::random_seq_with_n(rng, m, param.n_prob)
                     : [&] {
                         auto q = ref;
                         q.resize(std::min(m, q.size()));
                         return saloba::testing::mutate(rng, q, 0.15);
                       }();
    if (query.empty()) continue;

    for (std::size_t band : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                             std::size_t{1} << 20}) {
      auto banded = smith_waterman_banded(ref, query, param.scheme, band);
      auto masked = masked_reference(ref, query, param.scheme, band);
      EXPECT_EQ(banded.result, masked)
          << "n=" << n << " m=" << m << " band=" << band;
      if (band >= std::max(n, m)) {
        EXPECT_EQ(banded.result, smith_waterman(ref, query, param.scheme))
            << "n=" << n << " m=" << m;
      }
    }
  }
}

std::vector<CrossCase> cross_cases() {
  ScoringScheme bwa;                       // 1/4/6/1
  ScoringScheme longread = long_read_scheme();  // 2/5/4/2
  ScoringScheme flat;
  flat.match = 1;
  flat.mismatch = 1;
  flat.gap_open = 1;
  flat.gap_extend = 1;
  ScoringScheme steep;
  steep.match = 5;
  steep.mismatch = 4;
  steep.gap_open = 10;
  steep.gap_extend = 1;
  std::vector<CrossCase> cases;
  std::uint64_t seed = 7000;
  for (const auto& scheme : {bwa, longread, flat, steep}) {
    for (std::size_t len : {12u, 80u, 300u}) {
      for (double n_prob : {0.0, 0.1}) {
        cases.push_back(CrossCase{seed++, len, n_prob, scheme});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SchemesAndShapes, CrossImpl, ::testing::ValuesIn(cross_cases()));

}  // namespace
}  // namespace saloba::align
