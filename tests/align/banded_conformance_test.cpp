// Banded-extension conformance (Sec. VII-B), batch level: the per-pair band
// channel must mean exactly the same thing everywhere it is consumed — the
// CPU batch path, the Aligner facade (CPU and simulated backends), the
// sharding scheduler, and the streaming pipeline all reduce to
// align::smith_waterman_banded at the pair's effective band, and a band
// covering the whole table reproduces full Smith-Waterman bit for bit.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "core/aligner.hpp"
#include "seedext/pipeline.hpp"
#include "seq/alphabet.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::align {
namespace {

using core::AlignerOptions;

/// Random related batch with a randomized per-pair band channel: a mix of
/// narrow, wide, table-covering and (when `allow_unbanded`) full-table
/// pairs, the shapes the pipeline actually produces.
seq::PairBatch random_banded_batch(std::uint64_t seed, std::size_t pairs,
                                   std::size_t max_len, bool allow_unbanded = true) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::size_t rlen = 1 + rng.below(max_len);
    std::size_t qlen = 1 + rng.below(max_len);
    auto ref = saloba::testing::random_seq(rng, rlen);
    std::vector<seq::BaseCode> query;
    if (qlen <= rlen && rng.bernoulli(0.7)) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(qlen));
      query = saloba::testing::mutate(rng, query, 0.1);
    } else {
      query = saloba::testing::random_seq(rng, qlen);
    }
    std::size_t band;
    switch (rng.below(allow_unbanded ? 4 : 3)) {
      case 0: band = 1 + rng.below(8); break;                       // narrow
      case 1: band = 8 + rng.below(40); break;                      // moderate
      case 2: band = std::max(rlen, qlen) + rng.below(10); break;   // covering
      default: band = 0; break;                                     // full table
    }
    batch.add(std::move(query), std::move(ref), band);
  }
  return batch;
}

std::vector<AlignmentResult> banded_reference(const seq::PairBatch& batch,
                                              const ScoringScheme& s) {
  std::vector<AlignmentResult> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i] = smith_waterman_banded(batch.refs[i], batch.queries[i], s,
                                   batch.band_of(i))
                 .result;
  }
  return out;
}

TEST(BandedConformance, AlignBatchMatchesPerPairBandedReference) {
  ScoringScheme s;
  for (std::uint64_t seed : {501u, 502u, 503u}) {
    auto batch = random_banded_batch(seed, 40, 160);
    auto got = align_batch(batch, s);
    auto expected = banded_reference(batch, s);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " pair " << i << " band "
                                     << batch.band_of(i);
    }
  }
}

TEST(BandedConformance, CoveringBandIsBitIdenticalToFullTable) {
  ScoringScheme s;
  auto batch = random_banded_batch(504, 30, 120, /*allow_unbanded=*/false);
  // Force every band to cover the table.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.bands[i] = std::max(batch.refs[i].size(), batch.queries[i].size());
  }
  auto got = align_batch(batch, s);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], smith_waterman(batch.refs[i], batch.queries[i], s)) << "pair " << i;
  }
}

TEST(BandedConformance, CpuAlignerHonorsBatchDefaultBand) {
  AlignerOptions opts;
  core::Aligner aligner(opts);
  auto batch = saloba::testing::imbalanced_batch(505, 30, 5, 150);
  batch.default_band = 16;
  auto out = aligner.align(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto expected =
        smith_waterman_banded(batch.refs[i], batch.queries[i], opts.scoring, 16).result;
    EXPECT_EQ(out.results[i], expected) << "pair " << i;
  }
  // The reported workload is the in-band cell count, not the full area.
  EXPECT_EQ(out.cells, batch.total_banded_cells());
  EXPECT_LT(out.cells, batch.total_cells());
}

TEST(BandedConformance, AlignerHonorsPerPairBandsOverDefault) {
  // Per-pair bands win; a pair whose own band is 0 falls back to the
  // batch's default_band (PairBatch::band_of).
  AlignerOptions opts;
  core::Aligner aligner(opts);
  auto batch = random_banded_batch(507, 25, 130, /*allow_unbanded=*/false);
  batch.default_band = 3;
  for (std::size_t i = 0; i < batch.size(); i += 4) batch.bands[i] = 0;
  auto out = aligner.align(batch);
  auto expected = banded_reference(batch, opts.scoring);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.results[i], expected[i]) << "pair " << i;
  }
  EXPECT_EQ(batch.band_of(0), 3u);
}

TEST(BandedConformance, SimulatedShardedAlignerMatchesBandedReference) {
  // Simulated backend, multiple devices, small shards: bands must survive
  // sorting, snake-dealing and shard re-batching (gpusim::make_shards).
  AlignerOptions opts;
  opts.backend = core::Backend::kSimulated;
  opts.kernel = "saloba";
  opts.devices = 3;
  core::SimulatedGpuBackend backend(opts);
  core::SchedulerOptions sched;
  sched.max_shard_pairs = 7;
  auto batch = saloba::testing::imbalanced_batch(508, 40, 4, 180);
  batch.default_band = 12;
  auto out = core::BatchScheduler(&backend, sched).run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto expected =
        smith_waterman_banded(batch.refs[i], batch.queries[i], opts.scoring, 12).result;
    EXPECT_EQ(out.results[i], expected) << "pair " << i;
  }
  ASSERT_TRUE(out.kernel_stats.has_value());
  EXPECT_EQ(out.kernel_stats->totals.dp_cells, batch.total_banded_cells());
  EXPECT_EQ(out.kernel_stats->totals.dp_cells + out.kernel_stats->totals.dp_cells_skipped,
            batch.total_cells());
}

// --- banded_cells unit behaviour ------------------------------------------

TEST(BandedCells, MatchesCellsActuallyComputed) {
  ScoringScheme s;
  util::Xoshiro256 rng(511);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t n = 1 + rng.below(90);
    std::size_t m = 1 + rng.below(90);
    std::size_t band = 1 + rng.below(100);
    auto ref = saloba::testing::random_seq(rng, n);
    auto query = saloba::testing::random_seq(rng, m);
    auto banded = smith_waterman_banded(ref, query, s, band);
    EXPECT_EQ(seq::banded_cells(n, m, band), banded.cells_computed)
        << "n=" << n << " m=" << m << " band=" << band;
  }
}

TEST(BandedCells, ZeroBandMeansFullTable) {
  EXPECT_EQ(seq::banded_cells(17, 23, 0), 17u * 23u);
  EXPECT_EQ(seq::banded_cells(0, 23, 5), 0u);
  EXPECT_EQ(seq::banded_cells(17, 0, 5), 0u);
}

// --- degenerate bands and inputs through the whole pipeline ---------------

TEST(BandedGuards, ExplicitZeroBandsAreBitIdenticalToUnbanded) {
  auto batch = saloba::testing::imbalanced_batch(515, 25, 3, 120);
  seq::PairBatch zero = batch;
  zero.bands.assign(zero.size(), 0);
  core::Aligner aligner{AlignerOptions{}};
  auto a = aligner.align(batch);
  auto b = aligner.align(zero);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "pair " << i;
  }
  EXPECT_EQ(a.cells, b.cells);
}

TEST(BandedGuards, BandOneThroughCpuAndSimulatedBackends) {
  auto batch = saloba::testing::imbalanced_batch(516, 20, 1, 90);
  batch.default_band = 1;
  for (auto backend : {core::Backend::kCpu, core::Backend::kSimulated}) {
    AlignerOptions opts;
    opts.backend = backend;
    core::Aligner aligner(opts);
    auto out = aligner.align(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto expected =
          smith_waterman_banded(batch.refs[i], batch.queries[i], opts.scoring, 1).result;
      EXPECT_EQ(out.results[i], expected)
          << (backend == core::Backend::kCpu ? "cpu" : "sim") << " pair " << i;
    }
  }
}

TEST(BandedGuards, EmptyBatchAndEmptySequences) {
  for (auto backend : {core::Backend::kCpu, core::Backend::kSimulated}) {
    AlignerOptions opts;
    opts.backend = backend;
    core::Aligner aligner(opts);

    seq::PairBatch empty;
    empty.default_band = 4;
    auto out = aligner.align(empty);
    EXPECT_TRUE(out.results.empty());
    EXPECT_EQ(out.cells, 0u);

    seq::PairBatch degenerate;
    degenerate.add({}, seq::encode_string("ACGT"), 2);
    degenerate.add(seq::encode_string("ACGT"), {}, 2);
    degenerate.add(seq::encode_string("GATTACA"), seq::encode_string("GATTACA"), 1);
    auto deg = aligner.align(degenerate);
    EXPECT_EQ(deg.results[0], AlignmentResult{});
    EXPECT_EQ(deg.results[1], AlignmentResult{});
    EXPECT_EQ(deg.results[2].score, 7);  // identical pair, diagonal in band
  }
}

TEST(BandedGuards, MapBatchPathDegenerateBands) {
  // The whole ReadMapper::map_batch path — seeding, chaining, job
  // extraction, batched extension through an Aligner — must neither assert
  // nor diverge from the per-job CPU reference at band-1 and default job
  // parameters.
  seq::GenomeParams gp;
  gp.length = 20000;
  gp.seed = 99;
  auto genome = seq::generate_genome(gp);
  seq::ReadSimulator sim(genome, seq::ReadProfile::illumina_250bp(), 17);
  std::vector<std::vector<seq::BaseCode>> reads;
  for (const auto& r : sim.simulate(12)) reads.push_back(r.read.bases);
  reads.emplace_back();  // empty read rides along

  for (int mode = 0; mode < 2; ++mode) {
    seedext::MapperParams params;
    if (mode == 0) {  // band 1
      params.jobs.min_band = 1;
      params.jobs.band_frac = 0.0;
    }
    seedext::ReadMapper mapper(genome, params);
    core::AlignerOptions opts;
    opts.scoring = params.scoring;
    core::Aligner aligner(opts);
    std::vector<seedext::ReadMapping> per_job;
    for (const auto& read : reads) per_job.push_back(mapper.map(read));
    auto batched = mapper.map_batch(reads, aligner.batch_extender());
    ASSERT_EQ(per_job.size(), batched.size()) << "mode " << mode;
    for (std::size_t i = 0; i < per_job.size(); ++i) {
      EXPECT_EQ(per_job[i].mapped, batched[i].mapped) << "mode " << mode << " read " << i;
      EXPECT_EQ(per_job[i].ref_pos, batched[i].ref_pos) << "mode " << mode << " read " << i;
      EXPECT_EQ(per_job[i].score, batched[i].score) << "mode " << mode << " read " << i;
    }
  }
}

}  // namespace
}  // namespace saloba::align
