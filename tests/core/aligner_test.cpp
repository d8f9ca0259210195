#include "core/aligner.hpp"

#include <gtest/gtest.h>

#include "../support/test_support.hpp"

namespace saloba::core {
namespace {

TEST(Aligner, HostBackendAligns) {
  Aligner aligner(AlignerOptions{});
  auto batch = saloba::testing::related_batch(161, 30, 100, 150);
  auto out = aligner.align(batch);
  ASSERT_EQ(out.results.size(), 30u);
  EXPECT_GT(out.time_ms, 0.0);
  EXPECT_EQ(out.cells, batch.total_cells());
  EXPECT_FALSE(out.kernel_stats.has_value());
}

TEST(Aligner, SimulatedBackendMatchesCpu) {
  AlignerOptions cpu_opts;
  Aligner cpu(cpu_opts);
  AlignerOptions sim_opts;
  sim_opts.backend = Backend::kSimulated;
  sim_opts.kernel = "saloba";
  sim_opts.device = "rtx3090";
  Aligner sim(sim_opts);

  auto batch = saloba::testing::imbalanced_batch(162, 25, 20, 300);
  auto cpu_out = cpu.align(batch);
  auto sim_out = sim.align(batch);
  EXPECT_EQ(cpu_out.results, sim_out.results);
  EXPECT_TRUE(sim_out.kernel_stats.has_value());
  EXPECT_TRUE(sim_out.time_breakdown.has_value());
  EXPECT_GT(sim_out.time_ms, 0.0);
}

TEST(Aligner, AllRegisteredKernelsWorkThroughFacade) {
  auto batch = saloba::testing::related_batch(163, 10, 120, 160);
  Aligner cpu{AlignerOptions{}};
  auto expected = cpu.align(batch).results;
  for (const char* kernel : {"gasal2", "nvbio", "adept", "sw#", "saloba-sw16"}) {
    AlignerOptions opts;
    opts.backend = Backend::kSimulated;
    opts.kernel = kernel;
    opts.device = "gtx1650";
    Aligner sim(opts);
    EXPECT_EQ(sim.align(batch).results, expected) << kernel;
  }
}

TEST(Aligner, DeviceByNameResolvesPresets) {
  EXPECT_EQ(Aligner::device_by_name("gtx1650").name, "GTX1650");
  EXPECT_EQ(Aligner::device_by_name("RTX3090").name, "RTX3090");
  EXPECT_EQ(Aligner::device_by_name("p100").name, "P100");
  EXPECT_EQ(Aligner::device_by_name("v100").name, "V100");
  EXPECT_THROW(Aligner::device_by_name("tpu"), std::invalid_argument);
}

TEST(Aligner, UnknownDeviceMessageListsPresets) {
  try {
    Aligner::device_by_name("tpu");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    for (const char* name : {"gtx1650", "rtx3090", "p100", "v100"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " missing from: " << msg;
    }
  }
}

TEST(Aligner, MultiDeviceShardingKeepsResultsAndCutsWallTime) {
  auto batch = saloba::testing::imbalanced_batch(166, 40, 100, 1500);
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba-sw16";
  opts.device = "rtx3090";
  auto single = Aligner(opts).align(batch);
  opts.devices = 2;
  auto dual = Aligner(opts).align(batch);
  EXPECT_EQ(single.results, dual.results);
  EXPECT_LT(dual.time_ms, single.time_ms);
  EXPECT_EQ(dual.schedule.lanes, 2);
}

TEST(Aligner, GcupsComputedFromMergedOutputOnBothBackends) {
  auto batch = saloba::testing::related_batch(167, 20, 150, 200);
  for (Backend backend : {Backend::kCpu, Backend::kSimulated}) {
    AlignerOptions opts;
    opts.backend = backend;
    auto out = Aligner(opts).align(batch);
    ASSERT_GT(out.time_ms, 0.0);
    EXPECT_DOUBLE_EQ(out.gcups, static_cast<double>(out.cells) / (out.time_ms * 1e6));
  }
}

TEST(Aligner, BatchExtenderRoutesThroughScheduler) {
  auto batch = saloba::testing::related_batch(168, 15, 100, 130);
  Aligner cpu{AlignerOptions{}};
  auto extender = cpu.batch_extender();
  EXPECT_EQ(extender(batch), cpu.align(batch).results);
}

TEST(Aligner, TracedExtenderOnScoreOnlyAlignerThrows) {
  Aligner score_only{AlignerOptions{}};
  try {
    score_only.traced_extender();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("AlignerOptions::traceback"), std::string::npos)
        << e.what();
  }
  AlignerOptions opts;
  opts.traceback = true;
  Aligner traced(opts);
  auto batch = saloba::testing::related_batch(169, 6, 60, 80);
  EXPECT_EQ(traced.traced_extender()(batch), traced.align(batch).traced);
}

TEST(Aligner, GcupsReported) {
  Aligner aligner{AlignerOptions{}};
  auto batch = saloba::testing::related_batch(164, 40, 200, 200);
  auto out = aligner.align(batch);
  EXPECT_GT(out.gcups, 0.0);
}

TEST(Aligner, MoveSemantics) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  Aligner a(opts);
  Aligner b = std::move(a);
  auto batch = saloba::testing::related_batch(165, 5, 50, 50);
  EXPECT_EQ(b.align(batch).results.size(), 5u);
}

}  // namespace
}  // namespace saloba::core
