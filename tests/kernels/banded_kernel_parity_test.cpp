// Banded-extension conformance (Sec. VII-B), kernel level: every registered
// simulated kernel must honor the batch's per-pair band channel with the
// shared out-of-band semantics (H = 0, E/F = -inf) — bit-identical to
// align::smith_waterman_banded at the same band, bit-identical to its own
// full-table run whenever the band covers the table, and with DP-cell
// accounting that splits the nominal |q|·|r| table exactly into dp_cells
// (computed) + dp_cells_skipped (pruned).
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "kernels/block_dp.hpp"
#include "kernels/kernel_iface.hpp"
#include "seq/alphabet.hpp"

namespace saloba::kernels {
namespace {

using align::ScoringScheme;

std::vector<align::AlignmentResult> banded_reference(const seq::PairBatch& batch,
                                                     const ScoringScheme& s) {
  std::vector<align::AlignmentResult> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i] = align::smith_waterman_banded(batch.refs[i], batch.queries[i], s,
                                          batch.band_of(i))
                 .result;
  }
  return out;
}

/// Randomized ragged batch with a per-pair band mixing every width class.
seq::PairBatch ragged_banded_batch(std::uint64_t seed, std::size_t pairs,
                                   std::size_t max_len) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::size_t rlen = 1 + rng.below(max_len);
    std::size_t qlen = 1 + rng.below(max_len);
    auto ref = saloba::testing::random_seq(rng, rlen);
    auto query = saloba::testing::random_seq(rng, qlen);
    std::size_t band = 1 + rng.below(std::max(rlen, qlen) + 16);
    batch.add(std::move(query), std::move(ref), band);
  }
  return batch;
}

class BandedKernelParity : public ::testing::TestWithParam<std::string> {};

TEST_P(BandedKernelParity, RandomBandsMatchBandedReference) {
  auto kernel = make_kernel(GetParam());
  ScoringScheme s;
  for (std::uint64_t seed : {9001u, 9002u}) {
    auto batch = ragged_banded_batch(seed, 30, 180);
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = kernel->run(dev, batch, s);
    auto expected = banded_reference(batch, s);
    ASSERT_EQ(result.results.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.results[i], expected[i])
          << kernel->info().name << " seed " << seed << " pair " << i << " band "
          << batch.band_of(i);
    }
  }
}

TEST_P(BandedKernelParity, UniformBandMatrixMatchesBandedReference) {
  // The ISSUE's band matrix: every kernel checked under band in
  // {1, 8, 32, huge} on a related (realistic-scoring) batch.
  auto kernel = make_kernel(GetParam());
  ScoringScheme s;
  auto base = saloba::testing::related_batch(9100, 14, 96, 130);
  for (std::size_t band : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                           std::size_t{100000}}) {
    seq::PairBatch batch = base;
    batch.default_band = band;
    gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
    auto result = kernel->run(dev, batch, s);
    auto expected = banded_reference(batch, s);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.results[i], expected[i])
          << kernel->info().name << " band " << band << " pair " << i;
    }
  }
}

TEST_P(BandedKernelParity, CoveringBandIsBitIdenticalToFullTableRun) {
  auto kernel = make_kernel(GetParam());
  ScoringScheme s;
  auto full_batch = saloba::testing::imbalanced_batch(9200, 25, 2, 140);
  seq::PairBatch banded_batch = full_batch;
  banded_batch.default_band =
      std::max(full_batch.max_ref_len(), full_batch.max_query_len());

  gpusim::Device dev_full(gpusim::DeviceSpec::gtx1650());
  auto full = kernel->run(dev_full, full_batch, s);
  gpusim::Device dev_banded(gpusim::DeviceSpec::gtx1650());
  auto banded = kernel->run(dev_banded, banded_batch, s);
  for (std::size_t i = 0; i < full_batch.size(); ++i) {
    EXPECT_EQ(banded.results[i], full.results[i]) << kernel->info().name << " pair " << i;
  }
}

TEST_P(BandedKernelParity, CellAccountingSplitsTheTableExactly) {
  auto kernel = make_kernel(GetParam());
  ScoringScheme s;
  auto batch = ragged_banded_batch(9300, 20, 150);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto result = kernel->run(dev, batch, s);
  EXPECT_EQ(result.stats.totals.dp_cells, batch.total_banded_cells())
      << kernel->info().name;
  EXPECT_EQ(result.stats.totals.dp_cells + result.stats.totals.dp_cells_skipped,
            batch.total_cells())
      << kernel->info().name;
}

TEST_P(BandedKernelParity, BandedEmptySequencesAreHarmless) {
  auto kernel = make_kernel(GetParam());
  ScoringScheme s;
  seq::PairBatch batch;
  batch.add({}, seq::encode_string("ACGT"), 2);
  batch.add(seq::encode_string("ACGT"), {}, 2);
  batch.add(seq::encode_string("GATTACA"), seq::encode_string("GATTACA"), 1);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto result = kernel->run(dev, batch, s);
  EXPECT_EQ(result.results[0], align::AlignmentResult{}) << kernel->info().name;
  EXPECT_EQ(result.results[1], align::AlignmentResult{}) << kernel->info().name;
  EXPECT_EQ(result.results[2].score, 7) << kernel->info().name;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredKernels, BandedKernelParity,
                         ::testing::ValuesIn(kernel_names()), param_name);

// --- block-level banded primitives ----------------------------------------

TEST(BlockIntersectsBand, Geometry) {
  // band 0 = unbanded keeps every block.
  EXPECT_TRUE(block_intersects_band(1000, 0, 8, 8, 0));
  // Block spanning the diagonal.
  EXPECT_TRUE(block_intersects_band(16, 16, 8, 8, 1));
  // Block just above the band (j - i too large) and just inside.
  EXPECT_FALSE(block_intersects_band(0, 16, 8, 8, 8));
  EXPECT_TRUE(block_intersects_band(0, 16, 8, 8, 9));
  // Block just below the band (i - j too large) and just inside.
  EXPECT_FALSE(block_intersects_band(16, 0, 8, 8, 8));
  EXPECT_TRUE(block_intersects_band(16, 0, 8, 8, 9));
  // Ragged blocks: a 1x1 block at (i, j) is in band iff |i - j| <= band.
  EXPECT_TRUE(block_intersects_band(10, 7, 1, 1, 3));
  EXPECT_FALSE(block_intersects_band(11, 7, 1, 1, 3));
}

TEST(BlockDpBanded, ZeroBandDelegatesToFullBlock) {
  util::Xoshiro256 rng(9400);
  auto ref = saloba::testing::random_seq(rng, 8);
  auto query = saloba::testing::random_seq(rng, 8);
  ScoringScheme s;
  BlockBoundary in = BlockBoundary::table_edge();
  BlockOutput full_out, banded_out;
  block_dp(ref.data(), query.data(), 8, 8, 0, 0, in, s, full_out);
  std::uint64_t computed =
      block_dp_banded(ref.data(), query.data(), 8, 8, 0, 0, 0, in, s, banded_out);
  EXPECT_EQ(computed, 64u);
  EXPECT_EQ(banded_out.best, full_out.best);
  for (int k = 0; k < kBlockDim; ++k) {
    EXPECT_EQ(banded_out.bottom_h[k], full_out.bottom_h[k]);
    EXPECT_EQ(banded_out.right_h[k], full_out.right_h[k]);
  }
}

}  // namespace
}  // namespace saloba::kernels
