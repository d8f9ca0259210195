// The traceback phase as a scheduler/backend concern: phase stats and time
// split, sharded vs unsharded trace identity, and the streaming aggregates.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "core/aligner.hpp"
#include "core/backend.hpp"
#include "core/scheduler.hpp"
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

TEST(TracebackPhase, CpuShardedTracesMatchUnsharded) {
  auto batch = saloba::testing::imbalanced_batch(7, 60, 16, 200);

  AlignerOptions single;
  single.traceback = true;
  auto want = Aligner(single).align(batch);

  HostBackend backend{single.scoring};
  SchedulerOptions sharded;
  sharded.max_shard_pairs = 9;
  sharded.traceback = true;
  auto got = BatchScheduler(&backend, sharded).run(batch);
  ASSERT_GT(got.schedule.shards, 1u);
  ASSERT_EQ(got.traced.size(), want.traced.size());
  for (std::size_t i = 0; i < want.traced.size(); ++i) {
    EXPECT_EQ(got.traced[i], want.traced[i]) << "pair " << i;
  }
  // A cohort's block height follows its longest ref, so the replayed cells
  // move with the sharding; each run still replays at most its forward
  // sweep, which is the score pass's cells.
  EXPECT_EQ(got.cells, want.cells);
  for (const AlignOutput* out : {&want, &got}) {
    EXPECT_GT(out->traceback_cells, 0u);
    EXPECT_LE(out->traceback_cells, out->cells);
  }
}

TEST(TracebackPhase, HeterogeneousLanesTraceEveryPair) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.device = "gtx1650,rtx3090";
  opts.traceback = true;
  auto batch = saloba::testing::related_batch(5, 32, 80, 120);
  SimulatedGpuBackend backend(opts);
  SchedulerOptions capped;
  capped.max_shard_pairs = 8;
  capped.traceback = true;
  auto out = BatchScheduler(&backend, capped).run(batch);
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
  // The host traces in the score wave: no time apart from align_ms, and
  // only the replayed cells beyond `cells`.
  EXPECT_GT(stats.align_ms, 0.0);
  EXPECT_EQ(stats.traceback_ms, 0.0);
  EXPECT_GT(stats.traceback_cells, 0u);
  EXPECT_LE(stats.traceback_cells, stats.cells);
}

TEST(TracebackPhase, BackendRunTracedGivesZeroScorePairsTheEmptyTrace) {
  seq::PairBatch batch;
  batch.add({0, 1, 2, 3}, {0, 1, 2, 3});  // perfect match
  batch.add(std::vector<seq::BaseCode>(8, 0), std::vector<seq::BaseCode>(8, 1));  // hopeless
  align::ScoringScheme scoring;
  HostBackend backend(scoring);
  const auto score = backend.run(batch, 0);
  ASSERT_EQ(score.items[1].score, 0);
  const TracedRun run = backend.run_traced(batch, 0);
  EXPECT_EQ(run.score.items, score.items);
  EXPECT_EQ(run.score.work, score.work);  // the hopeless pair is swept too
  ASSERT_EQ(run.trace.items.size(), 2u);
  EXPECT_EQ(run.trace.items[0].cigar, "4M");
  EXPECT_EQ(run.trace.items[0].end, score.items[0]);
  EXPECT_EQ(run.trace.items[1], align::TracedAlignment{});
  EXPECT_EQ(run.trace.items[1].end, score.items[1]);
}

}  // namespace
}  // namespace saloba::core
