// HostBackend's SIMD lanes: device-string routing, calibrated lane weights,
// and bit-identical parity with scalar lanes through the whole scheduler stack
// (score pass, banded/z-drop runs, two-phase traceback). `ctest -L simd`.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "core/aligner.hpp"

namespace saloba::core {
namespace {

TEST(SimdHostBackend, RunMatchesScalarBackend) {
  auto batch = saloba::testing::imbalanced_batch(801, 40, 5, 300);
  HostBackend scalar{align::ScoringScheme{}, {LaneKind::kScalar}};
  HostBackend simd{align::ScoringScheme{}, {LaneKind::kSimd}};
  EXPECT_EQ(simd.lanes(), 1);
  EXPECT_EQ(simd.name(), "simd");
  auto want = scalar.run(batch, 0);
  auto got = simd.run(batch, 0);
  EXPECT_EQ(got.items, want.items);
  EXPECT_EQ(got.work, want.work);
  EXPECT_FALSE(got.kernel_stats.has_value());
}

TEST(SimdHostBackend, BandedZdropRunMatchesScalarBackend) {
  auto batch = saloba::testing::related_batch(802, 30, 100, 140);
  batch.default_band = 16;
  HostBackend scalar{align::ScoringScheme{}, {LaneKind::kScalar}, 0, /*zdrop=*/20};
  HostBackend simd{align::ScoringScheme{}, {LaneKind::kSimd}, 0, /*zdrop=*/20};
  auto want = scalar.run(batch, 0);
  auto got = simd.run(batch, 0);
  EXPECT_EQ(got.items, want.items);
  EXPECT_EQ(got.work, want.work);
}

TEST(SimdHostBackend, TracebackPhaseMatchesScalarBackend) {
  auto batch = saloba::testing::related_batch(803, 20, 90, 130);
  HostBackend scalar{align::ScoringScheme{}, {LaneKind::kScalar}};
  HostBackend simd{align::ScoringScheme{}, {LaneKind::kSimd}};
  auto score = simd.run(batch, 0);
  auto want = scalar.run_traceback(batch, score.items, TracebackSettings{}, 0);
  auto got = simd.run_traceback(batch, score.items, TracebackSettings{}, 0);
  EXPECT_EQ(got.items, want.items);
  // The SIMD lane traces with its own engine (align::simd::trace_batch),
  // so its cells are that engine's: a forward share equal to the score
  // pass's in-band cells of the traced pairs, plus at most as many replayed.
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

TEST(SimdHostBackend, CalibratedLaneWeightOrdersLanes) {
  const double speedup = simd_lane_speedup();
  EXPECT_GE(speedup, 1.0);
  EXPECT_LE(speedup, 64.0);

  HostBackend mixed{align::ScoringScheme{}, {LaneKind::kSimd, LaneKind::kScalar},
                    /*threads_total=*/2};
  EXPECT_EQ(mixed.lanes(), 2);
  EXPECT_EQ(mixed.name(), "simd+cpu");
  EXPECT_EQ(mixed.lane_kind(0), LaneKind::kSimd);
  EXPECT_EQ(mixed.lane_kind(1), LaneKind::kScalar);
  // Same thread budget per lane: the SIMD lane's weight is exactly the
  // calibrated engine ratio times the scalar lane's.
  EXPECT_DOUBLE_EQ(mixed.lane_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(mixed.lane_weight(0), speedup);
  EXPECT_GE(mixed.lane_weight(0), mixed.lane_weight(1));
}

TEST(MakeBackend, RoutesHostDeviceStrings) {
  AlignerOptions opts;  // Backend::kCpu, device "rtx3090"
  EXPECT_EQ(make_backend(opts)->name(), "cpu");  // legacy shape unchanged

  opts.device = "cpu";
  EXPECT_EQ(make_backend(opts)->name(), "cpu");

  opts.device = "simd";
  auto simd = make_backend(opts);
  EXPECT_EQ(simd->name(), "simd");
  EXPECT_EQ(simd->lanes(), 1);

  opts.device = "simd";
  opts.cpu_lanes = 3;
  EXPECT_EQ(make_backend(opts)->lanes(), 3);
  opts.cpu_lanes = 1;

  opts.device = "simd,cpu";
  auto mixed = make_backend(opts);
  EXPECT_EQ(mixed->name(), "simd+cpu");
  EXPECT_EQ(mixed->lanes(), 2);

  opts.device = "cpu,cpu";
  auto two_scalar = make_backend(opts);
  EXPECT_EQ(two_scalar->name(), "cpu");
  EXPECT_EQ(two_scalar->lanes(), 2);

  opts.device = "simd,rtx3090";
  EXPECT_THROW(make_backend(opts), std::invalid_argument);
}

TEST(SimdAligner, EndToEndMatchesCpuAligner) {
  auto batch = saloba::testing::imbalanced_batch(804, 60, 10, 250);
  AlignerOptions cpu_opts;
  auto want = Aligner(cpu_opts).align(batch);

  AlignerOptions simd_opts;
  simd_opts.device = "simd";
  auto got = Aligner(simd_opts).align(batch);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.cells, want.cells);
}

TEST(SimdAligner, BandedTracebackMatchesCpuAligner) {
  auto batch = saloba::testing::related_batch(805, 25, 110, 150);
  AlignerOptions cpu_opts;
  cpu_opts.band = 24;
  cpu_opts.zdrop = 60;
  cpu_opts.traceback = true;
  auto want = Aligner(cpu_opts).align(batch);

  AlignerOptions simd_opts = cpu_opts;
  simd_opts.device = "simd";
  auto got = Aligner(simd_opts).align(batch);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.traced, want.traced);
}

TEST(SimdAligner, MixedLanesScheduleBitIdentical) {
  auto batch = saloba::testing::imbalanced_batch(806, 50, 20, 280);
  AlignerOptions cpu_opts;
  auto want = Aligner(cpu_opts).align(batch);

  AlignerOptions mixed;
  mixed.device = "simd,cpu";
  mixed.cpu_threads = 2;
  mixed.max_shard_pairs = 8;  // force several shards across both lanes
  auto got = Aligner(mixed).align(batch);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.schedule.lanes, 2);
  ASSERT_EQ(got.schedule.lane_weights.size(), 2u);
  // Weighted LPT saw the calibration: the SIMD lane outweighs the scalar one.
  EXPECT_GE(got.schedule.lane_weights[0], got.schedule.lane_weights[1]);
}

}  // namespace
}  // namespace saloba::core
