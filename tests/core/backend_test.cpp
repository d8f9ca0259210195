// AlignBackend implementations: lane bookkeeping, CPU/simulated parity,
// and registry-backed construction errors.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "core/aligner.hpp"
#include "gpusim/device_registry.hpp"

namespace saloba::core {
namespace {

TEST(HostBackend, RunsBatchOnSingleLane) {
  HostBackend backend{align::ScoringScheme{}};
  EXPECT_EQ(backend.lanes(), 1);
  auto batch = saloba::testing::related_batch(701, 12, 90, 120);
  auto out = backend.run(batch, 0);
  EXPECT_EQ(out.items, align::align_batch(batch, align::ScoringScheme{}));
  EXPECT_FALSE(out.kernel_stats.has_value());
  EXPECT_GT(out.time_ms, 0.0);
}

TEST(HostBackend, MultiLaneSplitsThreadBudget) {
  // 3 lanes over a 6-thread budget: 2 OpenMP threads per lane, every lane
  // produces the same results as the single-lane reference.
  HostBackend backend{align::ScoringScheme{}, 3, 6};
  EXPECT_EQ(backend.lanes(), 3);
  EXPECT_EQ(backend.threads_per_lane(), 2);
  auto batch = saloba::testing::related_batch(705, 10, 70, 90);
  auto expected = align::align_batch(batch, align::ScoringScheme{});
  for (int lane = 0; lane < backend.lanes(); ++lane) {
    EXPECT_EQ(backend.run(batch, lane).items, expected) << "lane " << lane;
  }
}

TEST(HostBackend, MultiLaneBudgetNeverRoundsToZero) {
  // More lanes than budgeted threads: each lane still gets one thread.
  HostBackend backend{align::ScoringScheme{}, 4, 2};
  EXPECT_EQ(backend.threads_per_lane(), 1);
}

TEST(HostBackend, SchedulerOverlapsMultiLaneCpuShards) {
  // The ROADMAP item: with lanes > 1 the scheduler spreads shards over CPU
  // lanes concurrently, results stay bit-identical and lane accounting
  // covers every lane.
  auto batch = saloba::testing::imbalanced_batch(706, 30, 30, 300);
  AlignerOptions opts;  // CPU backend
  auto expected = Aligner(opts).align(batch);

  AlignerOptions multi = opts;
  multi.cpu_lanes = 2;
  multi.cpu_threads = 2;
  auto out = Aligner(multi).align(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.schedule.lanes, 2);
  ASSERT_EQ(out.schedule.lane_ms.size(), 2u);
  EXPECT_GT(out.schedule.lane_ms[0], 0.0);
  EXPECT_GT(out.schedule.lane_ms[1], 0.0);
  EXPECT_EQ(out.schedule.shards, 2u);  // one shard per lane by default
}

TEST(SimulatedGpuBackend, LanesOwnIndependentDevices) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.device = "gtx1650";
  opts.devices = 3;
  SimulatedGpuBackend backend(opts);
  EXPECT_EQ(backend.lanes(), 3);

  auto batch = saloba::testing::related_batch(702, 8, 100, 140);
  auto expected = align::align_batch(batch, align::ScoringScheme{});
  for (int lane = 0; lane < backend.lanes(); ++lane) {
    auto out = backend.run(batch, lane);
    EXPECT_EQ(out.items, expected) << "lane " << lane;
    ASSERT_TRUE(out.kernel_stats.has_value());
    EXPECT_GT(out.time_ms, 0.0);
  }
}

TEST(SimulatedGpuBackend, UnknownKernelThrowsListingValidNames) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "not-a-kernel";
  try {
    SimulatedGpuBackend backend(opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("not-a-kernel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("saloba"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gasal2"), std::string::npos) << msg;
  }
}

TEST(SimulatedGpuBackend, UnknownDeviceThrowsListingValidNames) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "tpu";
  try {
    SimulatedGpuBackend backend(opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("tpu"), std::string::npos) << msg;
    for (const auto& name : gpusim::device_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " missing from: " << msg;
    }
  }
}

TEST(HostBackend, LaneWeightsAreUniform) {
  HostBackend single{align::ScoringScheme{}};
  EXPECT_DOUBLE_EQ(single.lane_weight(0), 1.0);
  HostBackend multi{align::ScoringScheme{}, 3, 6};
  EXPECT_EQ(lane_weights(multi), (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(SimulatedGpuBackend, MixedPresetsBuildOneWeightedLanePerPreset) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.device = "gtx1650, rtx3090";  // whitespace around commas tolerated
  SimulatedGpuBackend backend(opts);
  EXPECT_EQ(backend.lanes(), 2);
  EXPECT_EQ(backend.device(0).spec().name, "GTX1650");
  EXPECT_EQ(backend.device(1).spec().name, "RTX3090");
  // Weights are relative throughput, slowest lane pinned at 1.
  EXPECT_DOUBLE_EQ(backend.lane_weight(0), 1.0);
  EXPECT_GT(backend.lane_weight(1), 2.0);
  EXPECT_NE(backend.name().find("GTX1650+RTX3090"), std::string::npos) << backend.name();

  auto weights = lane_weights(backend);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[1], backend.lane_weight(1));

  // Every lane still computes identical results — heterogeneity is a cost
  // property, never a functional one.
  auto batch = saloba::testing::related_batch(707, 6, 80, 110);
  auto expected = align::align_batch(batch, align::ScoringScheme{});
  for (int lane = 0; lane < backend.lanes(); ++lane) {
    EXPECT_EQ(backend.run(batch, lane).items, expected) << "lane " << lane;
  }
}

TEST(SimulatedGpuBackend, SinglePresetKeepsUniformWeightsAcrossReplicas) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650";
  opts.devices = 3;
  SimulatedGpuBackend backend(opts);
  for (int lane = 0; lane < backend.lanes(); ++lane) {
    EXPECT_DOUBLE_EQ(backend.lane_weight(lane), 1.0) << "lane " << lane;
  }
}

TEST(SimulatedGpuBackend, UnknownPresetInListThrowsListingValidNames) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650,tpu";
  try {
    SimulatedGpuBackend backend(opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("tpu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rtx3090"), std::string::npos) << msg;
  }
}

TEST(SimulatedGpuBackend, EmptyPresetListElementThrows) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650,,rtx3090";
  EXPECT_THROW(SimulatedGpuBackend{opts}, std::invalid_argument);
  opts.device = "";
  EXPECT_THROW(SimulatedGpuBackend{opts}, std::invalid_argument);
}

TEST(DevicePresetList, SplitsAndTrims) {
  EXPECT_EQ(device_preset_list("rtx3090"), (std::vector<std::string>{"rtx3090"}));
  EXPECT_EQ(device_preset_list(" gtx1650 , rtx3090 "),
            (std::vector<std::string>{"gtx1650", "rtx3090"}));
  EXPECT_THROW(device_preset_list(","), std::invalid_argument);
}

TEST(SimulatedGpuBackendDeath, MixedPresetsRejectConflictingDeviceCount) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650,rtx3090";
  opts.devices = 3;  // neither 1 nor the list length
  EXPECT_DEATH(SimulatedGpuBackend{opts}, "conflicts");
}

TEST(MakeBackend, DispatchesOnOptions) {
  AlignerOptions cpu;
  EXPECT_EQ(make_backend(cpu)->name(), "cpu");
  AlignerOptions sim;
  sim.backend = Backend::kSimulated;
  auto backend = make_backend(sim);
  EXPECT_EQ(backend->name().find("sim:"), 0u) << backend->name();
}

}  // namespace
}  // namespace saloba::core
