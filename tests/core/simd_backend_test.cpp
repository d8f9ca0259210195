// HostBackend runs the inter-sequence SIMD engine on its one lane: its score
// pass, banded runs and two-phase traceback are bit-identical to the scalar
// oracles (align::align_batch, per-pair align::banded_traceback) through the
// whole scheduler stack, sharded or not, and every host device string builds
// the same backend. `ctest -L simd`.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "core/aligner.hpp"
#include "core/scheduler.hpp"

namespace saloba::core {
namespace {

using saloba::testing::oracle_traces;

TEST(SimdHostBackend, RunMatchesScalarOracle) {
  auto batch = saloba::testing::imbalanced_batch(801, 40, 5, 300);
  HostBackend backend{align::ScoringScheme{}};
  EXPECT_EQ(backend.lanes(), 1);
  EXPECT_EQ(backend.name(), "cpu");
  align::BatchTiming timing;
  const auto want = align::align_batch(batch, align::ScoringScheme{}, &timing);
  auto got = backend.run(batch, 0);
  EXPECT_EQ(got.items, want);
  EXPECT_EQ(got.work, timing.cells);
  EXPECT_FALSE(got.kernel_stats.has_value());
}

TEST(SimdHostBackend, BandedRunMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(802, 30, 100, 140);
  batch.default_band = 16;
  HostBackend backend{align::ScoringScheme{}};
  align::BatchTiming timing;
  const auto want = align::align_batch(batch, align::ScoringScheme{}, &timing);
  auto got = backend.run(batch, 0);
  EXPECT_EQ(got.items, want);
  EXPECT_EQ(got.work, timing.cells);
}

TEST(SimdHostBackend, TracebackPhaseMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(803, 20, 90, 130);
  HostBackend backend{align::ScoringScheme{}};
  auto score = backend.run(batch, 0);
  auto got = backend.run_traceback(batch, score.items, 0);
  EXPECT_EQ(got.items, oracle_traces(batch, align::ScoringScheme{}));
  // The backend traces with align::simd::trace_batch, so its cells are that
  // engine's: a forward share equal to the score pass's in-band cells of the
  // traced pairs, plus at most as many replayed.
  std::size_t forward = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (score.items[i].score > 0) forward += batch.cells_of(i);
  }
  align::simd::TraceStats stats;
  align::simd::trace_batch(batch, score.items, align::ScoringScheme{}, &stats);
  EXPECT_EQ(stats.forward_cells, forward);
  EXPECT_EQ(got.work, stats.cells());
  EXPECT_GE(got.work, forward);
  EXPECT_LE(got.work, 2 * forward);
}

TEST(MakeBackend, EveryHostDeviceStringBuildsOneCpuLane) {
  // Backend::kCpu does not read the device string: the default GPU preset,
  // the former host-engine names and a host/GPU mix all build the one-lane
  // host backend.
  AlignerOptions opts;  // Backend::kCpu, device "rtx3090"
  for (const char* device : {"rtx3090", "cpu", "simd", "simd,cpu", "simd,rtx3090"}) {
    opts.device = device;
    auto backend = make_backend(opts);
    EXPECT_EQ(backend->name(), "cpu") << device;
    EXPECT_EQ(backend->lanes(), 1) << device;
  }
}

TEST(SimdAligner, EndToEndMatchesScalarOracle) {
  auto batch = saloba::testing::imbalanced_batch(804, 60, 10, 250);
  align::BatchTiming timing;
  const auto want = align::align_batch(batch, align::ScoringScheme{}, &timing);

  auto got = Aligner(AlignerOptions{}).align(batch);
  EXPECT_EQ(got.results, want);
  EXPECT_EQ(got.cells, timing.cells);
}

TEST(SimdAligner, BandedTracebackMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(805, 25, 110, 150);
  batch.default_band = 24;
  AlignerOptions opts;
  opts.traceback = true;
  auto got = Aligner(opts).align(batch);

  EXPECT_EQ(got.results, align::align_batch(batch, opts.scoring));
  EXPECT_EQ(got.traced, oracle_traces(batch, opts.scoring));
}

TEST(SimdAligner, ShardedScheduleMatchesScalarOracle) {
  // Capped shards put SIMD cohorts of every shard shape through the one
  // host lane, score pass and traceback alike.
  auto batch = saloba::testing::imbalanced_batch(806, 50, 20, 280);
  const align::ScoringScheme scoring;
  HostBackend backend{scoring};
  SchedulerOptions sched;
  sched.max_shard_pairs = 8;
  sched.traceback = true;
  auto got = BatchScheduler(&backend, sched).run(batch);
  EXPECT_EQ(got.results, align::align_batch(batch, scoring));
  EXPECT_EQ(got.traced, oracle_traces(batch, scoring));
  EXPECT_EQ(got.schedule.lanes, 1);
  EXPECT_GT(got.schedule.shards, 2u);
  EXPECT_EQ(got.schedule.lane_weights, (std::vector<double>{1.0}));
}

}  // namespace
}  // namespace saloba::core
