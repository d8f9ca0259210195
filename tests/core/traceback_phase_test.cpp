// The traceback phase as a scheduler/backend concern: phase stats and time
// split, z-drop endpoint parity on the CPU backend, sharded vs single-lane
// trace identity, and the streaming aggregates.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "core/aligner.hpp"
#include "core/backend.hpp"
#include "core/stream_aligner.hpp"

namespace saloba::core {
namespace {

TEST(TracebackPhase, SimulatedBackendModelsPhaseCostInStatsAndBreakdown) {
  auto batch = saloba::testing::related_batch(21, 24, 96, 128);

  AlignerOptions score_only;
  score_only.backend = Backend::kSimulated;
  auto base = Aligner(score_only).align(batch);

  AlignerOptions opts = score_only;
  opts.traceback = true;
  auto out = Aligner(opts).align(batch);

  // The phase shows up in the counters and the breakdown...
  ASSERT_TRUE(out.kernel_stats.has_value());
  const gpusim::PhaseCost& tb = out.kernel_stats->totals.phases[gpusim::Phase::kTraceback];
  EXPECT_GT(tb.work, 0u);
  EXPECT_GT(tb.bytes, 0u);
  EXPECT_EQ(tb.work, out.traceback_cells);
  ASSERT_TRUE(out.time_breakdown.has_value());
  EXPECT_GT(out.time_breakdown->phase_ms[gpusim::Phase::kTraceback], 0.0);
  EXPECT_GT(out.traceback_ms, 0.0);

  // ...without perturbing the score pass: same results, same score-phase
  // cells and simulated time.
  EXPECT_EQ(out.results, base.results);
  ASSERT_TRUE(base.kernel_stats.has_value());
  EXPECT_EQ(out.kernel_stats->totals.dp_cells, base.kernel_stats->totals.dp_cells);
  EXPECT_EQ(base.kernel_stats->totals.phases[gpusim::Phase::kTraceback].work, 0u);
  EXPECT_DOUBLE_EQ(out.time_ms, base.time_ms);
}

TEST(TracebackPhase, CpuZdropEndpointsStayBitIdentical) {
  // Z-drop changes score-pass results; the engine mirrors it, so traced
  // endpoints must still equal the (z-dropped) score pass bit for bit.
  auto batch = saloba::testing::imbalanced_batch(33, 40, 20, 300);
  batch.default_band = 24;
  AlignerOptions opts;
  opts.zdrop = 25;
  opts.band = 24;
  opts.traceback = true;
  auto out = Aligner(opts).align(batch);
  ASSERT_EQ(out.traced.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.traced[i].end, out.results[i]) << "pair " << i;
  }
}

TEST(TracebackPhase, CpuMultiLaneShardedTracesMatchSingleLane) {
  auto batch = saloba::testing::imbalanced_batch(7, 60, 16, 200);

  AlignerOptions single;
  single.traceback = true;
  // A fixed block height makes the SIMD cohort pass's cells a per-pair sum
  // (the default K follows each cohort's longest ref).
  single.traceback_checkpoint_rows = 16;
  auto want = Aligner(single).align(batch);

  AlignerOptions sharded = single;
  sharded.cpu_lanes = 3;
  sharded.max_shard_pairs = 9;
  auto got = Aligner(sharded).align(batch);
  ASSERT_GT(got.schedule.shards, 1u);
  ASSERT_EQ(got.traced.size(), want.traced.size());
  for (std::size_t i = 0; i < want.traced.size(); ++i) {
    EXPECT_EQ(got.traced[i], want.traced[i]) << "pair " << i;
  }
  // ...so the phase's cells cannot depend on the sharding.
  EXPECT_EQ(got.traceback_cells, want.traceback_cells);
}

TEST(TracebackPhase, HeterogeneousLanesTraceEveryPair) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650,rtx3090";
  opts.max_shard_pairs = 8;
  opts.traceback = true;
  auto batch = saloba::testing::related_batch(5, 32, 80, 120);
  auto out = Aligner(opts).align(batch);
  ASSERT_GT(out.schedule.shards, 1u);
  ASSERT_EQ(out.traced.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.traced[i].end, out.results[i]) << "pair " << i;
  }
  EXPECT_GT(out.traceback_ms, 0.0);

  // The merged phase work and traffic are the single-device run's: every
  // pair is traced once, wherever its shard landed.
  AlignerOptions one = opts;
  one.device = "gtx1650";
  one.max_shard_pairs = 0;
  auto want = Aligner(one).align(batch);
  EXPECT_EQ(out.traceback_cells, want.traceback_cells);
  ASSERT_TRUE(out.kernel_stats.has_value());
  ASSERT_TRUE(want.kernel_stats.has_value());
  const gpusim::PhaseCost& got_tb = out.kernel_stats->totals.phases[gpusim::Phase::kTraceback];
  const gpusim::PhaseCost& want_tb = want.kernel_stats->totals.phases[gpusim::Phase::kTraceback];
  EXPECT_EQ(got_tb.work, want_tb.work);
  EXPECT_EQ(got_tb.bytes, want_tb.bytes);
}

TEST(TracebackPhase, StreamStatsReportThePhaseSplit) {
  AlignerOptions opts;
  opts.traceback = true;
  auto batch = saloba::testing::related_batch(91, 40, 60, 90);

  StreamOptions stream;
  stream.chunk_pairs = 11;
  StreamAligner aligner(opts, stream);
  ResidentChunkSource source(batch, stream.chunk_pairs);
  std::size_t traced_seen = 0;
  StreamStats stats = aligner.run(source, [&](std::size_t, std::size_t, AlignOutput&& out) {
    traced_seen += out.traced.size();
    EXPECT_EQ(out.traced.size(), out.results.size());
  });
  EXPECT_EQ(traced_seen, batch.size());
  EXPECT_GT(stats.traceback_ms, 0.0);
  EXPECT_GT(stats.traceback_cells, 0u);
}

TEST(TracebackPhase, ExplicitStreamScheduleCanEnableTraceback) {
  AlignerOptions opts;  // AlignerOptions::traceback off...
  StreamOptions stream;
  stream.chunk_pairs = 16;
  SchedulerOptions sched;
  sched.traceback = true;  // ...but the explicit schedule turns the phase on
  stream.schedule = sched;
  StreamAligner aligner(opts, stream);
  auto batch = saloba::testing::related_batch(17, 20, 50, 70);
  auto out = aligner.align_streamed(batch);
  ASSERT_EQ(out.traced.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.traced[i].end, out.results[i]) << "pair " << i;
  }
}

TEST(TracebackPhase, BackendRunTracebackSkipsZeroScorePairs) {
  seq::PairBatch batch;
  batch.add({0, 1, 2, 3}, {0, 1, 2, 3});  // perfect match
  batch.add(std::vector<seq::BaseCode>(8, 0), std::vector<seq::BaseCode>(8, 1));  // hopeless
  align::ScoringScheme scoring;
  HostBackend backend(scoring);
  auto results = backend.run(batch, 0).items;
  ASSERT_EQ(results[1].score, 0);
  auto tb = backend.run_traceback(batch, results, TracebackSettings{}, 0);
  ASSERT_EQ(tb.items.size(), 2u);
  EXPECT_EQ(tb.items[0].cigar, "4M");
  EXPECT_EQ(tb.items[0].end, results[0]);
  EXPECT_TRUE(tb.items[1].cigar.empty());
  EXPECT_EQ(tb.items[1].end, results[1]);
}

}  // namespace
}  // namespace saloba::core
