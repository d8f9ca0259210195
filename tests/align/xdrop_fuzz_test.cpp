// Property fuzz for the X-drop wavefront engine: across random pairs,
// mutation profiles (substitutions + indels), X-drop thresholds and
// degenerate inputs, the linear-memory engine must be bit-identical to the
// naive full-matrix oracle (align/xdrop_reference.hpp) in score, endpoint,
// canonical CIGAR AND the cells it computed (count, diagonals, widest
// window, X-drop termination) — and, with pruning off, to the full-matrix
// Smith-Waterman traceback. Its measured peak heap footprint must stay
// O(N + M) (allocation-counting via WavefrontStats::peak_bytes, which sums
// live container capacities at every phase boundary), and its block replay
// never re-derives more cells than the forward sweep computed. Every pair
// also runs at both lane widths: these short pairs fit the int16 lanes, and
// the same pair under scoring and X scaled by kScale takes the int32 lanes
// and must repeat the base run scaled.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"
#include "align/sw_reference.hpp"
#include "align/traceback.hpp"
#include "align/xdrop_reference.hpp"
#include "align/xdrop_wavefront.hpp"
#include "seq/alphabet.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace saloba::align {
namespace {

/// Every DP value and every compare scales by a constant, so scoring and X
/// scaled by kScale keep the X-drop mask and each tie-break. Its gap costs
/// alone put the scaled run past the int16 lanes.
constexpr Score kScale = 5000;

/// Mutated copy with substitutions AND indels, so fuzzed CIGARs exercise
/// every op and the walk's gap open/extend decisions.
std::vector<seq::BaseCode> mutate_indel(util::Xoshiro256& rng,
                                        const std::vector<seq::BaseCode>& src, double sub_p,
                                        double indel_p) {
  std::vector<seq::BaseCode> out;
  out.reserve(src.size() + 8);
  for (const auto b : src) {
    if (indel_p > 0 && rng.bernoulli(indel_p)) {
      if (rng.below(2) == 0) continue;  // deletion
      out.push_back(static_cast<seq::BaseCode>(rng.below(4)));  // insertion
    }
    out.push_back(rng.bernoulli(sub_p) ? static_cast<seq::BaseCode>(rng.below(4)) : b);
  }
  return out;
}

/// Engine vs oracle on one pair: score/endpoint equality, CIGAR
/// bit-identity (with the Smith-Waterman traceback too when pruning is
/// off), the computed-cell mask's counts, structural validity, exact
/// rescore, the replay bound, and the linear-memory bound on the engine's
/// measured peak.
void check_pair(const std::vector<seq::BaseCode>& ref,
                const std::vector<seq::BaseCode>& query, const ScoringScheme& s, Score xdrop,
                const char* tag) {
  const XDropParams params{.xdrop = xdrop};
  WavefrontStats stats, oracle_stats;
  const auto scored = xdrop_wavefront_score(ref, query, s, params);
  const auto engine = xdrop_wavefront_align(ref, query, s, params, &stats);
  const auto oracle = xdrop_reference_align(ref, query, s, params, &oracle_stats);

  ASSERT_EQ(scored, xdrop_reference_score(ref, query, s, params))
      << tag << " xdrop=" << xdrop;
  ASSERT_EQ(engine.end, scored) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(engine, oracle) << tag << " xdrop=" << xdrop << " engine='" << engine.cigar
                            << "' oracle='" << oracle.cigar << "'";
  // A window edge off by one cell barely reaches the score or CIGAR; the
  // mask's counts catch it.
  ASSERT_EQ(stats.cells, oracle_stats.cells) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(stats.diagonals, oracle_stats.diagonals) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(stats.max_wavefront, oracle_stats.max_wavefront) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(stats.xdropped, oracle_stats.xdropped) << tag << " xdrop=" << xdrop;
  if (xdrop <= 0) {
    const auto exact = smith_waterman_traceback(ref, query, s);
    ASSERT_EQ(engine, exact) << tag << " engine='" << engine.cigar << "' exact='" << exact.cigar
                             << "'";
  }
  // Each block is replayed at most once, and only up to the walk's entry.
  ASSERT_LE(stats.traceback_cells, stats.cells) << tag << " xdrop=" << xdrop;
  if (scored.score > 0) {
    ASSERT_TRUE(cigar_consistent(engine, ref.size(), query.size())) << tag;
    ASSERT_EQ(rescore_cigar(engine, ref, query, s), scored.score) << tag;
  }

  // O(N + M) invariant, measured: generous constant, nowhere near N*M.
  const std::size_t linear = ref.size() + query.size() + 2;
  ASSERT_LE(stats.peak_bytes, 128 * linear + 4096) << tag << " xdrop=" << xdrop;

  // The int32 lanes on the same pair. An X above the pair's score bound
  // keeps every cell live at either scale, so it is clamped there rather
  // than scaled past int32.
  const ScoringScheme scaled{.match = s.match * kScale, .mismatch = s.mismatch * kScale,
                             .gap_open = s.gap_open * kScale,
                             .gap_extend = s.gap_extend * kScale};
  const Score bound = s.match * static_cast<Score>(std::min(ref.size(), query.size()));
  const XDropParams scaled_params{.xdrop = xdrop > bound ? kScale * bound + 1 : kScale * xdrop};
  WavefrontStats wide_stats;
  const auto wide = xdrop_wavefront_align(ref, query, scaled, scaled_params, &wide_stats);
  ASSERT_EQ(stats.lane_bits, 16u) << tag;
  ASSERT_EQ(wide_stats.lane_bits, 32u) << tag;
  ASSERT_EQ(wide.end.score, kScale * engine.end.score) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide.end.ref_end, engine.end.ref_end) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide.end.query_end, engine.end.query_end) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide.ref_start, engine.ref_start) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide.query_start, engine.query_start) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide.cigar, engine.cigar) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide_stats.cells, stats.cells) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide_stats.traceback_cells, stats.traceback_cells) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide_stats.diagonals, stats.diagonals) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide_stats.max_wavefront, stats.max_wavefront) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide_stats.xdropped, stats.xdropped) << tag << " xdrop=" << xdrop;
  ASSERT_EQ(wide, xdrop_reference_align(ref, query, scaled, scaled_params))
      << tag << " xdrop=" << xdrop;
  ASSERT_EQ(xdrop_wavefront_score(ref, query, scaled, scaled_params), wide.end)
      << tag << " xdrop=" << xdrop;
}

struct FuzzCase {
  std::uint64_t seed;
  std::size_t ref_len, query_len;
  double sub_p, indel_p;
  bool with_n;
};

class XdropFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(XdropFuzz, EngineBitIdenticalToFullMatrixOracle) {
  const FuzzCase fc = GetParam();
  ScoringScheme s;
  util::Xoshiro256 rng(fc.seed);
  const Score thresholds[] = {0, 8, 20, 50, 1 << 20};
  for (int it = 0; it < 6; ++it) {
    auto ref = fc.with_n ? saloba::testing::random_seq_with_n(rng, fc.ref_len, 0.05)
                         : saloba::testing::random_seq(rng, fc.ref_len);
    std::vector<seq::BaseCode> query;
    if (fc.query_len <= fc.ref_len) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(fc.query_len));
      query = mutate_indel(rng, query, fc.sub_p, fc.indel_p);
    } else {
      query = fc.with_n ? saloba::testing::random_seq_with_n(rng, fc.query_len, 0.05)
                        : saloba::testing::random_seq(rng, fc.query_len);
    }
    for (const Score xdrop : thresholds) {
      check_pair(ref, query, s, xdrop, "fuzz");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, XdropFuzz,
    ::testing::Values(
        FuzzCase{7001, 16, 16, 0.05, 0.0, false},    // tiny related
        FuzzCase{7002, 60, 60, 0.1, 0.03, false},    // medium with indels
        FuzzCase{7003, 120, 110, 0.05, 0.05, false}, // indel-heavy
        FuzzCase{7004, 90, 90, 0.3, 0.08, false},    // high divergence
        FuzzCase{7005, 40, 160, 0.0, 0.0, false},    // unrelated, query longer
        FuzzCase{7006, 160, 40, 0.1, 0.02, false},   // short query in long ref
        FuzzCase{7007, 80, 80, 0.1, 0.04, true},     // N-heavy alphabet
        FuzzCase{7008, 1, 140, 0.0, 0.0, false},     // single-base ref
        FuzzCase{7009, 140, 1, 0.0, 0.0, false}));   // single-base query

TEST(XdropFuzz, SplitPeakPairsExerciseThePruneBoundary) {
  // Two strong local optima separated by a divergent gulf: small X-drop must
  // terminate inside the gulf in both implementations, identically.
  ScoringScheme s;
  util::Xoshiro256 rng(7101);
  for (int it = 0; it < 10; ++it) {
    auto left = saloba::testing::random_seq(rng, 50);
    auto gulf_r = saloba::testing::random_seq(rng, 60);
    auto gulf_q = saloba::testing::random_seq(rng, 60);
    auto right = saloba::testing::random_seq(rng, 70);

    std::vector<seq::BaseCode> ref = left;
    ref.insert(ref.end(), gulf_r.begin(), gulf_r.end());
    ref.insert(ref.end(), right.begin(), right.end());
    std::vector<seq::BaseCode> query = mutate_indel(rng, left, 0.08, 0.02);
    query.insert(query.end(), gulf_q.begin(), gulf_q.end());
    auto right_q = mutate_indel(rng, right, 0.08, 0.02);
    query.insert(query.end(), right_q.begin(), right_q.end());

    for (const Score xdrop : {Score{6}, Score{12}, Score{30}, Score{200}}) {
      check_pair(ref, query, s, xdrop, "split-peak");
    }
  }
}

TEST(XdropFuzz, SmallThresholdsOnLowEntropyPairs) {
  // Below the gap-open cost the live window's right edge can sit next to
  // the best cell's diagonal successor, the cell a vector tail lane
  // computes but the window excludes. Short pairs over 1-4 letter alphabets
  // with the query mostly copied from the reference put many ties there.
  ScoringScheme s;
  util::Xoshiro256 rng(7301);
  for (int it = 0; it < 2000; ++it) {
    const std::size_t n = 4 + rng.below(40);
    const std::size_t m = 4 + rng.below(40);
    const std::uint64_t letters = 1 + rng.below(4);
    auto letter = [&] { return static_cast<seq::BaseCode>(rng.below(letters)); };
    std::vector<seq::BaseCode> ref(n), query(m);
    for (auto& b : ref) b = letter();
    for (std::size_t k = 0; k < m; ++k) {
      const bool copied = k < n && rng.bernoulli(0.7);
      query[k] = copied && !rng.bernoulli(0.1) ? ref[k] : letter();
    }
    for (const Score xdrop : {1, 2, 3, 4, 5, 6, 7, 8, 10}) {
      check_pair(ref, query, s, xdrop, "low-entropy");
    }
  }
}

TEST(XdropFuzz, DegenerateInputsMatchOracle) {
  ScoringScheme s;
  const std::vector<seq::BaseCode> empty;
  const std::vector<seq::BaseCode> all_n(25, seq::kBaseN);
  const std::vector<seq::BaseCode> homo_a(64, seq::encode_base('A'));
  const std::vector<seq::BaseCode> homo_c(40, seq::encode_base('C'));
  const auto mixed = seq::encode_string("ACGTNNACGTACGTNACGT");

  const std::vector<std::pair<std::vector<seq::BaseCode>, std::vector<seq::BaseCode>>> cases = {
      {empty, empty},  {empty, homo_a}, {homo_a, empty}, {all_n, all_n},
      {all_n, mixed},  {homo_a, homo_a}, {homo_a, homo_c}, {homo_c, homo_a},
      {mixed, mixed},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const Score xdrop : {Score{0}, Score{4}, Score{100}}) {
      check_pair(cases[c].first, cases[c].second, s, xdrop, "degenerate");
    }
  }
}

TEST(XdropFuzz, HomopolymerTiesAreCanonical) {
  // Pure-repeat pairs maximize DP ties; every tie-break in the engine and
  // oracle must fire identically for the CIGARs to match bit-for-bit.
  ScoringScheme s;
  for (const std::size_t n : {8u, 31u, 64u}) {
    for (const std::size_t m : {5u, 33u, 64u}) {
      const std::vector<seq::BaseCode> ref(n, seq::encode_base('G'));
      const std::vector<seq::BaseCode> query(m, seq::encode_base('G'));
      for (const Score xdrop : {Score{0}, Score{3}, Score{50}}) {
        check_pair(ref, query, s, xdrop, "homopolymer");
      }
    }
  }
}

TEST(XdropFuzz, LinearMemoryHoldsOnLargePrunedPair) {
  // Engine-only (the oracle is O(N*M)): a pair far beyond any full-matrix
  // budget still aligns, rescoring exactly, inside the measured linear bound.
  ScoringScheme s;
  util::Xoshiro256 rng(7201);
  const std::size_t n = 20000;
  auto ref = saloba::testing::random_seq(rng, n);
  auto query = mutate_indel(rng, ref, 0.08, 0.03);

  WavefrontStats stats;
  const XDropParams params{.xdrop = 60};
  const auto traced = xdrop_wavefront_align(ref, query, s, params, &stats);
  ASSERT_GT(traced.end.score, 0);
  ASSERT_TRUE(cigar_consistent(traced, ref.size(), query.size()));
  ASSERT_EQ(rescore_cigar(traced, ref, query, s), traced.end.score);

  const std::size_t linear = ref.size() + query.size();
  EXPECT_LE(stats.peak_bytes, 128 * linear + 4096);
  // ... and strictly below what any quadratic representation would need.
  EXPECT_LT(stats.peak_bytes, ref.size() * query.size() / 100);
}

}  // namespace
}  // namespace saloba::align
