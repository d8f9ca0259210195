// AlignBackend implementations: lane bookkeeping, CPU/simulated parity,
// registry-backed construction errors, the typed errors every front end
// throws for bad AlignerOptions, and the worker replicas' thread budget.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "core/align_service.hpp"
#include "core/aligner.hpp"
#include "core/stream_aligner.hpp"
#include "gpusim/device_registry.hpp"
#include "util/parallel.hpp"

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

TEST(HostBackend, OneLaneOfUnitWeight) {
  HostBackend backend{align::ScoringScheme{}};
  EXPECT_EQ(lane_weights(backend), (std::vector<double>{1.0}));
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

/// Runs `build` and expects std::invalid_argument whose message names
/// `field`.
template <typename Build>
void expect_invalid_naming(const Build& build, const std::string& field,
                           const std::string& what) {
  try {
    build();
    ADD_FAILURE() << what << ": expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << what << ": " << e.what();
  }
}

TEST(AlignerOptionsErrors, EveryFrontEndThrowsNamingTheField) {
  // Bad AlignerOptions are caller input: each front end builds its backend
  // before starting any thread, and the backend throws naming the field.
  AlignerOptions bad_scoring;
  bad_scoring.scoring.match = 0;
  AlignerOptions no_devices;
  no_devices.backend = Backend::kSimulated;
  no_devices.devices = 0;
  AlignerOptions conflicting;  // neither 1 nor the list length
  conflicting.backend = Backend::kSimulated;
  conflicting.device = "gtx1650,rtx3090";
  conflicting.devices = 3;
  const std::vector<std::pair<AlignerOptions, std::string>> cases = {
      {bad_scoring, "scoring"}, {no_devices, "devices"}, {conflicting, "devices"}};
  for (const auto& c : cases) {
    const AlignerOptions& opts = c.first;
    expect_invalid_naming([&] { Aligner aligner(opts); }, c.second, "Aligner");
    expect_invalid_naming([&] { AlignService service(opts); }, c.second, "AlignService");
    expect_invalid_naming([&] { StreamAligner streamer(opts); }, c.second, "StreamAligner");
  }
}

TEST(MakeBackend, DispatchesOnOptions) {
  AlignerOptions cpu;
  EXPECT_EQ(make_backend(cpu)->name(), "cpu");
  AlignerOptions sim;
  sim.backend = Backend::kSimulated;
  auto backend = make_backend(sim);
  EXPECT_EQ(backend->name().find("sim:"), 0u) << backend->name();
}

/// The thread cap of a host replica.
int host_threads(const AlignBackend& backend) {
  const auto* host = dynamic_cast<const HostBackend*>(&backend);
  EXPECT_NE(host, nullptr) << backend.name();
  return host != nullptr ? host->threads() : -1;
}

TEST(MakeWorkerReplicas, HostReplicasSplitTheHostThreads) {
  AlignerOptions cpu;
  // A single worker runs on the primary backend.
  EXPECT_TRUE(make_worker_replicas(cpu, 1).empty());

  // Three workers: three one-lane host backends sharing the machine.
  const int total = util::max_parallel_threads();
  auto replicas = make_worker_replicas(cpu, 3);
  ASSERT_EQ(replicas.size(), 3u);
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->lanes(), 1);
    EXPECT_EQ(host_threads(*replica), std::max(1, total / 3));
  }

  // More workers than threads: one thread each, never 0 (0 would mean the
  // default team, oversubscribing the machine).
  const auto workers = static_cast<std::size_t>(total) + 1;
  replicas = make_worker_replicas(cpu, workers);
  ASSERT_EQ(replicas.size(), workers);
  for (const auto& replica : replicas) EXPECT_EQ(host_threads(*replica), 1);
}

TEST(MakeWorkerReplicas, SimulatedReplicasCopyTheBackend) {
  AlignerOptions sim;
  sim.backend = Backend::kSimulated;
  sim.device = "gtx1650";
  sim.devices = 2;
  const std::string name = make_backend(sim)->name();
  auto replicas = make_worker_replicas(sim, 2);
  ASSERT_EQ(replicas.size(), 2u);
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->name(), name);
    EXPECT_EQ(replica->lanes(), 2);
  }
}

}  // namespace
}  // namespace saloba::core
