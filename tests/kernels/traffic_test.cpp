// Memory-traffic accounting vs the paper's Table I analytic model for the
// existing (GASAL2-style) aligner.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

using align::ScoringScheme;

KernelResult run_gasal(const seq::PairBatch& batch, const gpusim::DeviceSpec& spec) {
  gpusim::Device dev(spec);
  return make_kernel("gasal2")->run(dev, batch, ScoringScheme{});
}

TEST(TableOne, StoredIntermediateScalesAsNSquaredOverEight) {
  // GASAL2 stores one (H,F) cell per query column per strip: N/8 strips x
  // N columns x 4 B = N^2/2 bytes per pair, and reads them back once.
  const std::size_t n = 512;
  auto batch = saloba::testing::related_batch(101, 4, n, n);
  auto r = run_gasal(batch, gpusim::DeviceSpec::gtx1650());
  // Useful bytes ≈ inputs + results + stores (N^2/2) + loads ((N-8)/8 rows).
  double per_pair_useful =
      static_cast<double>(r.stats.totals.global_bytes_useful) / 4.0;
  double expected_interm = static_cast<double>(n) * n / 2.0 * 2.0;  // store + load
  EXPECT_NEAR(per_pair_useful, expected_interm, expected_interm * 0.15);
}

TEST(TableOne, PreVoltaMovesFourTimesMoreThanVolta) {
  // 128 B vs 32 B transactions on the same scattered 4 B accesses
  // (Table I: 16N^2 vs 4N^2).
  auto batch = saloba::testing::related_batch(102, 4, 256, 256);
  auto volta = run_gasal(batch, gpusim::DeviceSpec::volta_v100());
  auto pascal = run_gasal(batch, gpusim::DeviceSpec::pascal_p100());
  EXPECT_EQ(volta.stats.totals.global_bytes_useful, pascal.stats.totals.global_bytes_useful);
  double ratio = static_cast<double>(pascal.stats.totals.global_bytes_moved) /
                 static_cast<double>(volta.stats.totals.global_bytes_moved);
  EXPECT_NEAR(ratio, 4.0, 0.5);
}

TEST(TableOne, MovedBytesCarryGranularityWaste) {
  auto batch = saloba::testing::related_batch(103, 8, 256, 256);
  auto r = run_gasal(batch, gpusim::DeviceSpec::gtx1650());
  // Scattered 4 B row-buffer accesses dominate: ~8x waste at 32 B sectors.
  double waste = static_cast<double>(r.stats.totals.global_bytes_moved) /
                 static_cast<double>(r.stats.totals.global_bytes_useful);
  EXPECT_GT(waste, 4.0);
  EXPECT_LT(waste, 9.0);
}

TEST(Traffic, Cushaw2CompactionHalvesIntermediateUseful) {
  auto batch = saloba::testing::related_batch(104, 4, 512, 512);
  gpusim::Device d1(gpusim::DeviceSpec::rtx3090());
  auto gasal = make_kernel("gasal2")->run(d1, batch, ScoringScheme{});
  gpusim::Device d2(gpusim::DeviceSpec::rtx3090());
  auto cushaw = make_kernel("cushaw2-gpu")->run(d2, batch, ScoringScheme{});
  EXPECT_LT(cushaw.stats.totals.global_bytes_useful,
            gasal.stats.totals.global_bytes_useful * 0.7);
}

TEST(Traffic, AdeptHasNoIntermediateGlobalTraffic) {
  auto batch = saloba::testing::related_batch(105, 8, 512, 512);
  gpusim::Device d1(gpusim::DeviceSpec::rtx3090());
  auto adept = make_kernel("adept")->run(d1, batch, ScoringScheme{});
  gpusim::Device d2(gpusim::DeviceSpec::rtx3090());
  auto gasal = make_kernel("gasal2")->run(d2, batch, ScoringScheme{});
  // ADEPT only reads inputs and writes results: orders of magnitude less.
  EXPECT_LT(adept.stats.totals.global_bytes_useful,
            gasal.stats.totals.global_bytes_useful / 20);
}

TEST(Traffic, AllKernelsCountAllCells) {
  auto batch = saloba::testing::imbalanced_batch(106, 10, 30, 400);
  for (const char* name : {"gasal2", "nvbio", "cushaw2-gpu", "sw#", "adept", "saloba"}) {
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto r = make_kernel(name)->run(dev, batch, ScoringScheme{});
    EXPECT_EQ(r.stats.totals.dp_cells, batch.total_cells()) << name;
  }
}

TEST(Traffic, GasalDivergenceShowsOnImbalancedBatches) {
  auto balanced = saloba::testing::related_batch(107, 64, 256, 256);
  auto imbalanced = saloba::testing::imbalanced_batch(108, 64, 16, 496);
  gpusim::Device d1(gpusim::DeviceSpec::gtx1650());
  auto rb = make_kernel("gasal2")->run(d1, balanced, ScoringScheme{});
  gpusim::Device d2(gpusim::DeviceSpec::gtx1650());
  auto ri = make_kernel("gasal2")->run(d2, imbalanced, ScoringScheme{});
  EXPECT_GT(rb.stats.totals.lane_utilization(32), 0.95);
  EXPECT_LT(ri.stats.totals.lane_utilization(32), 0.80);
}

TEST(Traffic, SalobaKeepsUtilizationOnImbalancedBatches) {
  auto imbalanced = saloba::testing::imbalanced_batch(109, 64, 16, 496);
  gpusim::Device d1(gpusim::DeviceSpec::gtx1650());
  auto gasal = make_kernel("gasal2")->run(d1, imbalanced, ScoringScheme{});
  gpusim::Device d2(gpusim::DeviceSpec::gtx1650());
  auto saloba = make_kernel("saloba")->run(d2, imbalanced, ScoringScheme{});
  EXPECT_GT(saloba.stats.totals.lane_utilization(32),
            gasal.stats.totals.lane_utilization(32));
}

}  // namespace
}  // namespace saloba::kernels
