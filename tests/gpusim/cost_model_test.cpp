#include "gpusim/cost_model.hpp"

#include <gtest/gtest.h>

#include <string>

namespace saloba::gpusim {
namespace {

DeviceSpec simple_device() {
  DeviceSpec d;
  d.name = "unit";
  d.sm_count = 2;
  d.schedulers_per_sm = 1;
  d.core_clock_ghz = 1.0;  // 1 cycle = 1 ns
  d.mem_bandwidth_gbps = 100.0;
  d.mem_latency_cycles = 100.0;
  d.l2_waste_absorb = 0.5;
  return d;
}

TEST(CostModel, WarpCyclesComposition) {
  DeviceSpec d = simple_device();
  CostParams p;
  p.cpi = 1.0;
  p.sync_cycles = 10.0;
  p.transaction_service_cycles = 2.0;
  WarpCounters w;
  w.instructions = 1000;
  w.shared_conflict_cycles = 50;
  w.syncs = 3;
  w.global_requests = 4;
  w.global_transactions = 16;
  // hide factor = 8 resident warps
  double cycles = warp_cycles(w, d, p, 8);
  EXPECT_NEAR(cycles, 1000 + 50 + 30 + 4 * 100.0 / 8 + 32, 1e-9);
}

TEST(CostModel, LatencyHidingSaturates) {
  DeviceSpec d = simple_device();
  CostParams p;
  p.latency_hide_saturation = 16;
  WarpCounters w;
  w.global_requests = 100;
  double at16 = warp_cycles(w, d, p, 16);
  double at64 = warp_cycles(w, d, p, 64);
  EXPECT_DOUBLE_EQ(at16, at64);
  double at2 = warp_cycles(w, d, p, 2);
  EXPECT_GT(at2, at16);
}

TEST(CostModel, PipelinedThroughputSemantics) {
  // Sustained (200-call) model: compute time = total issue work over
  // device-wide issue bandwidth, regardless of block lumpiness.
  DeviceSpec d = simple_device();  // 2 SMs x 1 scheduler
  CostParams p;
  p.launch_overhead_us = 0.0;
  Occupancy occ;
  occ.blocks_per_sm = 1;
  occ.warps_per_sm = 4;
  std::vector<BlockCost> blocks{{4000.0, 1000.0}};
  WarpCounters totals;
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, 0);
  EXPECT_NEAR(t.compute_ms, 4000.0 / 2.0 / 1e9 * 1e3, 1e-9);
}

TEST(CostModel, ImbalanceDiagnosticFlagsMonsterBlocks) {
  DeviceSpec d = simple_device();
  CostParams p;
  Occupancy occ;
  occ.blocks_per_sm = 4;
  std::vector<BlockCost> blocks{{1000.0, 1000.0}, {10.0, 10.0}, {10.0, 10.0}};
  WarpCounters totals;
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, 0);
  // The single-call diagnostic still exposes the monster block.
  EXPECT_GT(t.sm_imbalance, 1.5);
  // ...while sustained compute reflects total work only.
  EXPECT_NEAR(t.compute_ms, 1020.0 / 2.0 / 1e9 * 1e3, 1e-9);
}

TEST(CostModel, BalancedBlocksSpreadAcrossSms) {
  DeviceSpec d = simple_device();  // 2 SMs, 1 scheduler each
  CostParams p;
  p.launch_overhead_us = 0.0;
  Occupancy occ;
  occ.blocks_per_sm = 8;
  std::vector<BlockCost> blocks(8, BlockCost{100.0, 100.0});
  WarpCounters totals;
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, 0);
  // 800 cycles of work over 2 SMs -> 400 cycles.
  EXPECT_NEAR(t.compute_ms, 400.0 / 1e9 * 1e3, 1e-9);
  EXPECT_NEAR(t.sm_imbalance, 1.0, 1e-9);
}

TEST(CostModel, DramRooflineDominatesWhenTrafficHuge) {
  DeviceSpec d = simple_device();  // 100 GB/s
  CostParams p;
  Occupancy occ;
  occ.blocks_per_sm = 1;
  std::vector<BlockCost> blocks{{10.0, 10.0}};
  WarpCounters totals;
  totals.global_bytes_useful = 1'000'000'000;  // 1 GB useful
  totals.global_bytes_moved = 1'000'000'000;
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, 0);
  EXPECT_NEAR(t.dram_ms, 10.0, 0.1);  // 1 GB / 100 GB/s = 10 ms
  EXPECT_GE(t.total_ms, 10.0);
}

TEST(CostModel, L2AbsorbsConfiguredWasteFraction) {
  DeviceSpec d = simple_device();  // absorb = 0.5
  CostParams p;
  Occupancy occ;
  std::vector<BlockCost> blocks{{1.0, 1.0}};
  WarpCounters totals;
  totals.global_bytes_useful = 100;
  totals.global_bytes_moved = 300;  // 200 waste -> 100 reaches DRAM
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, 0);
  EXPECT_NEAR(t.dram_bytes, 200.0, 1e-9);
}

TEST(CostModel, InitAndLaunchOverheadsAdd) {
  DeviceSpec d = simple_device();
  CostParams p;
  p.launch_overhead_us = 5.0;
  Occupancy occ;
  std::vector<BlockCost> blocks{{1.0, 1.0}};
  WarpCounters totals;
  TimeBreakdown t = estimate_time(d, p, occ, blocks, totals, /*init_bytes=*/100'000'000);
  EXPECT_NEAR(t.launch_ms, 0.005, 1e-12);
  EXPECT_NEAR(t.init_ms, 1.0, 1e-9);  // 100 MB / 100 GB/s
  EXPECT_NEAR(t.total_ms, t.compute_ms + t.launch_ms + t.init_ms, 1e-9);
}

TEST(CostModel, SummaryFormats) {
  TimeBreakdown t;
  t.total_ms = 1.5;
  EXPECT_NE(t.summary().find("1.5"), std::string::npos);
}

TEST(CostModel, PhaseTimeLandsInItsOwnSlotAndMergeAndScaleCoverEveryPhase) {
  DeviceSpec d = simple_device();
  CostParams p;
  const PhaseCost cost{64'000, 1 << 20};
  const double one_phase_ms = estimate_phase_time(Phase::kTraceback, d, p, cost).total_ms;
  ASSERT_GT(one_phase_ms, 0.0);

  TimeBreakdown sum;
  KernelStats stats;
  for (Phase phase : kPhases) {
    const TimeBreakdown t = estimate_phase_time(phase, d, p, cost);
    // Only this phase's slot and the total carry time, and every phase is
    // priced by the same model.
    EXPECT_DOUBLE_EQ(t.phase_ms[phase], one_phase_ms) << phase_name(phase);
    EXPECT_DOUBLE_EQ(t.total_ms, t.phase_ms[phase]) << phase_name(phase);
    for (Phase other : kPhases) {
      if (other != phase) {
        EXPECT_EQ(t.phase_ms[other], 0.0) << phase_name(phase);
      }
    }
    EXPECT_EQ(t.compute_ms + t.dram_ms + t.launch_ms + t.init_ms, 0.0) << phase_name(phase);
    sum.merge(t);
    stats.totals.phases[phase] += cost;
  }
  EXPECT_EQ(estimate_phase_time(Phase::kXdrop, d, p, PhaseCost{}).total_ms, 0.0);

  // merge sums every phase slot into the total...
  for (Phase phase : kPhases) EXPECT_DOUBLE_EQ(sum.phase_ms[phase], one_phase_ms);
  EXPECT_DOUBLE_EQ(sum.total_ms, 3 * one_phase_ms);
  sum.sm_imbalance = 1.5;
  TimeBreakdown worse;
  worse.sm_imbalance = 2.0;
  sum.merge(worse);
  EXPECT_DOUBLE_EQ(sum.sm_imbalance, 2.0);

  // ...and scaled shrinks every phase slot with the total, never the ratio.
  const TimeBreakdown share = sum.scaled(0.25);
  for (Phase phase : kPhases) {
    EXPECT_DOUBLE_EQ(share.phase_ms[phase], 0.25 * one_phase_ms) << phase_name(phase);
    EXPECT_LE(share.phase_ms[phase], share.total_ms) << phase_name(phase);
  }
  EXPECT_DOUBLE_EQ(share.total_ms, 0.25 * sum.total_ms);
  EXPECT_DOUBLE_EQ(share.sm_imbalance, 2.0);

  // Both summaries keep their per-phase labels.
  const std::string time_text = sum.summary();
  for (const char* label : {" traceback=", " chaining=", " xdrop="}) {
    EXPECT_NE(time_text.find(label), std::string::npos) << label << " in " << time_text;
  }
  const std::string stats_text = stats.summary(32);
  for (const char* label : {" tb_cells=64000 tb_bytes=1048576", " chain_updates=64000",
                            " chain_bytes=1048576", " xdrop_cells=64000 xdrop_bytes=1048576"}) {
    EXPECT_NE(stats_text.find(label), std::string::npos) << label << " in " << stats_text;
  }
}

}  // namespace
}  // namespace saloba::gpusim
