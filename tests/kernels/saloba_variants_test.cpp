// The Sec. IV-C (full-warp spilling) and Sec. VII-B (banded) SALoBa
// variants: functional equivalence / banded semantics plus their intended
// traffic effects.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_reference.hpp"
#include "kernels/saloba_kernel.hpp"

namespace saloba::kernels {
namespace {

using align::ScoringScheme;

KernelResult run_cfg(const SalobaConfig& cfg, const seq::PairBatch& batch,
                     const gpusim::DeviceSpec& spec) {
  gpusim::Device dev(spec);
  return make_saloba(cfg)->run(dev, batch, ScoringScheme{});
}

TEST(FullWarpSpill, FunctionallyIdenticalToDefault) {
  auto batch = saloba::testing::imbalanced_batch(201, 24, 100, 900);
  SalobaConfig base;
  base.subwarp_size = 8;
  SalobaConfig fw = base;
  fw.full_warp_spill = true;
  auto spec = gpusim::DeviceSpec::pascal_p100();
  EXPECT_EQ(run_cfg(base, batch, spec).results, run_cfg(fw, batch, spec).results);
}

TEST(FullWarpSpill, RestoresCoalescingOnPreVolta) {
  // Sec. IV-C: with 8-thread subwarps, spill bursts are only 256 B wide —
  // poor at 128 B granularity. The N+32-slot variant gathers full-warp
  // 1 KiB bursts and should move fewer bytes on a pre-Volta part.
  auto batch = saloba::testing::related_batch(202, 12, 1024, 1024);
  SalobaConfig base;
  base.subwarp_size = 8;
  SalobaConfig fw = base;
  fw.full_warp_spill = true;
  auto spec = gpusim::DeviceSpec::pascal_p100();
  auto rb = run_cfg(base, batch, spec);
  auto rf = run_cfg(fw, batch, spec);
  EXPECT_LT(rf.stats.totals.global_bytes_moved, rb.stats.totals.global_bytes_moved);
  EXPECT_LT(rf.stats.totals.global_requests, rb.stats.totals.global_requests);
}

TEST(FullWarpSpill, CostsSharedMemoryOccupancy) {
  SalobaConfig base;
  base.subwarp_size = 8;
  SalobaConfig fw = base;
  fw.full_warp_spill = true;
  // Name encodes the variant.
  EXPECT_EQ(make_saloba(fw)->info().name, "SALoBa-sw8-fw");
  EXPECT_EQ(make_saloba(base)->info().name, "SALoBa-sw8");
}

TEST(FullWarpSpill, NoopAtFullWarpSubwarps) {
  auto batch = saloba::testing::related_batch(203, 8, 700, 700);
  SalobaConfig base;
  base.subwarp_size = 32;
  SalobaConfig fw = base;
  fw.full_warp_spill = true;
  auto spec = gpusim::DeviceSpec::volta_v100();
  auto rb = run_cfg(base, batch, spec);
  auto rf = run_cfg(fw, batch, spec);
  EXPECT_EQ(rb.results, rf.results);
  EXPECT_EQ(rb.stats.totals.global_bytes_moved, rf.stats.totals.global_bytes_moved);
}

TEST(BandedSaloba, WideBandEqualsFullKernel) {
  auto batch = saloba::testing::imbalanced_batch(204, 20, 50, 400);
  SalobaConfig full;
  SalobaConfig banded = full;
  banded.band = 1024;  // wider than any pair
  auto spec = gpusim::DeviceSpec::gtx1650();
  EXPECT_EQ(run_cfg(full, batch, spec).results, run_cfg(banded, batch, spec).results);
}

TEST(BandedSaloba, NarrowBandNeverExceedsFullScore) {
  auto batch = saloba::testing::related_batch(205, 20, 300, 300);
  SalobaConfig banded;
  banded.band = 16;
  auto spec = gpusim::DeviceSpec::gtx1650();
  auto full_results = run_cfg(SalobaConfig{}, batch, spec).results;
  auto banded_results = run_cfg(banded, batch, spec).results;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_LE(banded_results[i].score, full_results[i].score) << i;
  }
}

TEST(BandedSaloba, NearDiagonalPairsKeepFullScore) {
  // Mutated copies of equal length stay near the diagonal: a moderate band
  // must recover the full score (the Sec. VII-B premise).
  util::Xoshiro256 rng(206);
  seq::PairBatch batch;
  for (int i = 0; i < 12; ++i) {
    auto ref = saloba::testing::random_seq(rng, 384);
    // Built before the call: argument order is unspecified, and moving
    // `ref` first would leave mutate an empty copy.
    auto query = saloba::testing::mutate(rng, ref, 0.05);
    batch.add(std::move(query), std::move(ref));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_FALSE(batch.queries[i].empty()) << i;
  }
  SalobaConfig banded;
  banded.band = 64;
  auto spec = gpusim::DeviceSpec::gtx1650();
  auto full_results = run_cfg(SalobaConfig{}, batch, spec).results;
  auto banded_results = run_cfg(banded, batch, spec).results;
  int equal = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_GT(full_results[i].score, 0) << i;
    equal += banded_results[i] == full_results[i];
  }
  EXPECT_GE(equal, 11);
}

TEST(BandedSaloba, ComputesFewerCells) {
  auto batch = saloba::testing::related_batch(207, 8, 512, 512);
  auto spec = gpusim::DeviceSpec::gtx1650();
  auto full = run_cfg(SalobaConfig{}, batch, spec);
  SalobaConfig banded;
  banded.band = 32;
  auto narrow = run_cfg(banded, batch, spec);
  EXPECT_LT(narrow.stats.totals.dp_cells, full.stats.totals.dp_cells / 3);
  EXPECT_LT(narrow.time.total_ms, full.time.total_ms);
}

TEST(BandedSaloba, BandedWithSubwarpsStillConsistent) {
  auto batch = saloba::testing::imbalanced_batch(208, 16, 40, 300);
  for (int sw : {8, 16, 32}) {
    SalobaConfig cfg;
    cfg.subwarp_size = sw;
    cfg.band = 2048;  // effectively unbanded
    auto spec = gpusim::DeviceSpec::rtx3090();
    auto results = run_cfg(cfg, batch, spec).results;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(results[i],
                align::smith_waterman(batch.refs[i], batch.queries[i], ScoringScheme{}))
          << "sw" << sw << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace saloba::kernels
