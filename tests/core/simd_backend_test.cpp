// HostBackend runs the inter-sequence SIMD engine on its one lane: its score
// pass, banded runs and traced runs are bit-identical to the scalar oracles
// (align::align_batch, per-pair align::banded_traceback) through the whole
// scheduler stack, sharded or not; a traced run is the score-only run plus
// traces, from one sweep per pair, on every rung of the ladder; and every
// host device string builds the same backend. `ctest -L simd`.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "align/xdrop_wavefront.hpp"
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

TEST(SimdHostBackend, TracedRunMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(803, 20, 90, 130);
  HostBackend backend{align::ScoringScheme{}};
  const auto score = backend.run(batch, 0);
  const TracedRun got = backend.run_traced(batch, 0);
  EXPECT_EQ(got.score.items, score.items);
  EXPECT_EQ(got.score.work, score.work);
  EXPECT_EQ(got.trace.items, oracle_traces(batch, align::ScoringScheme{}));
  // One wave: the forward sweeps are the score output's, and the trace
  // output carries no time and only the replayed cells, which are
  // align::simd::trace_batch's and at most the forward ones.
  align::simd::TraceStats stats;
  align::simd::trace_batch(batch, align::ScoringScheme{}, &stats);
  EXPECT_EQ(stats.forward_cells, score.work);
  EXPECT_EQ(got.trace.work, stats.replay_cells);
  EXPECT_GT(got.trace.work, 0u);
  EXPECT_LE(got.trace.work, got.score.work);
  EXPECT_GT(got.score.time_ms, 0.0);
  EXPECT_EQ(got.trace.time_ms, 0.0);
}

/// Routes pairs of at least this many bases to the X-drop wavefront in the
/// ladder corpus's routed runs.
constexpr std::size_t kLongReadThreshold = 1000;

/// One batch over every rung of the host ladder: empty pairs, zero-score
/// pairs, unbanded and banded pairs in the 8-bit cohorts, 16-bit rescues,
/// and the align::banded_traceback rung's pairs — over the traced cohort's
/// working-set budget, and oversize (past the 16-bit index guard). Under
/// kLongReadThreshold the oversize pair and two 1.5 kbp pairs route to the
/// X-drop wavefront.
seq::PairBatch ladder_corpus() {
  util::Xoshiro256 rng(811);
  seq::PairBatch batch;
  batch.add({}, {0, 1, 2});
  batch.add({0, 1, 2}, {});
  batch.add({}, {});
  batch.add(std::vector<seq::BaseCode>(12, 0), std::vector<seq::BaseCode>(40, 1));
  batch.add(std::vector<seq::BaseCode>(6, seq::kBaseN), std::vector<seq::BaseCode>(6, seq::kBaseN));
  for (std::size_t band : {std::size_t{0}, std::size_t{6}, std::size_t{24}}) {
    for (int p = 0; p < 12; ++p) {
      auto ref = saloba::testing::random_seq(rng, 60 + rng.below(120));
      auto query = saloba::testing::mutate(rng, ref, 0.08);
      query.erase(query.begin() + 20, query.begin() + 23);
      batch.add(std::move(query), std::move(ref), band);
    }
  }
  for (int p = 0; p < 5; ++p) {  // scores past 255
    auto ref = saloba::testing::random_seq(rng, 320);
    auto query = ref;
    query[100] = static_cast<seq::BaseCode>((query[100] + 1) % 4);
    batch.add(std::move(query), std::move(ref));
  }
  auto big_ref = saloba::testing::random_seq(rng, 700);
  batch.add(saloba::testing::mutate(rng, big_ref, 0.05), big_ref);
  auto long_ref = saloba::testing::random_seq(rng, 32001);
  batch.add(std::vector<seq::BaseCode>(long_ref.end() - 40, long_ref.end()), long_ref);
  for (int p = 0; p < 2; ++p) {
    auto ref = saloba::testing::random_seq(rng, 1500);
    auto query = saloba::testing::mutate(rng, ref, 0.03);
    query.erase(query.begin() + 700, query.begin() + 705);
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

TEST(SimdAligner, TracedRunIsTheScoreOnlyRunPlusTraces) {
  // The traced forward sweep replaces the score pass, so a traced run's
  // results and cells are a score-only run's, and every traced end is the
  // scalar oracle's (routed pairs: the wavefront's score pass), on every
  // rung of the ladder.
  const seq::PairBatch batch = ladder_corpus();
  const align::ScoringScheme scoring;
  align::simd::TraceStats rungs;
  align::simd::trace_batch(batch, scoring, &rungs);
  ASSERT_GT(rungs.pairs_8bit, 0u);
  ASSERT_GT(rungs.rescued_16bit, 0u);
  ASSERT_EQ(rungs.scalar_pairs, 4u);  // 700 bp, 32,001 bp and both 1.5 kbp pairs
  const std::vector<align::AlignmentResult> oracle = align::align_batch(batch, scoring);
  for (std::size_t threshold : {std::size_t{0}, kLongReadThreshold}) {
    AlignerOptions opts;
    opts.longread_threshold = threshold;
    const LongReadPolicy policy = opts.longread_policy();
    const AlignOutput score_only = Aligner(opts).align(batch);
    opts.traceback = true;
    const AlignOutput traced = Aligner(opts).align(batch);
    const std::string label = "threshold " + std::to_string(threshold);
    EXPECT_EQ(traced.results, score_only.results) << label;
    EXPECT_EQ(traced.cells, score_only.cells) << label;
    ASSERT_EQ(traced.traced.size(), batch.size()) << label;
    std::size_t routed = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      align::AlignmentResult want = oracle[i];
      if (policy.routes(batch.refs[i].size(), batch.queries[i].size())) {
        ++routed;
        want = align::xdrop_wavefront_score(batch.refs[i], batch.queries[i], scoring,
                                            align::XDropParams{policy.xdrop});
      }
      EXPECT_EQ(traced.traced[i].end, want) << label << " pair " << i;
      if (want.score <= 0) {
        EXPECT_EQ(traced.traced[i], align::TracedAlignment{}) << label << " pair " << i;
      }
    }
    EXPECT_EQ(routed, threshold == 0 ? 0u : 3u) << label;
  }
}

TEST(SimdAligner, TracedRunCountsEachCellOnce) {
  // One sweep per pair: `cells` holds the forward sweeps, and
  // `traceback_cells` exactly the replays on top of them — the cohorts'
  // and the scalar rung's (TraceStats::replay_cells) plus the wavefront's
  // (WavefrontStats::traceback_cells) — which never exceed the sweeps.
  const seq::PairBatch batch = ladder_corpus();
  AlignerOptions opts;
  opts.longread_threshold = kLongReadThreshold;
  opts.traceback = true;
  const LongReadPolicy policy = opts.longread_policy();
  const AlignOutput out = Aligner(opts).align(batch);

  seq::PairBatch rest;
  std::size_t xdrop_forward = 0, xdrop_replay = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!policy.routes(batch.refs[i].size(), batch.queries[i].size())) {
      rest.add(batch.queries[i], batch.refs[i], batch.band_of(i));
      continue;
    }
    align::WavefrontStats stats;
    align::xdrop_wavefront_align(batch.refs[i], batch.queries[i], opts.scoring,
                                 align::XDropParams{policy.xdrop}, &stats);
    xdrop_forward += stats.cells;
    xdrop_replay += stats.traceback_cells;
  }
  align::simd::TraceStats stats;
  align::simd::trace_batch(rest, opts.scoring, &stats);
  EXPECT_EQ(out.cells, stats.forward_cells + xdrop_forward);
  EXPECT_EQ(out.traceback_cells, stats.replay_cells + xdrop_replay);
  EXPECT_GT(stats.replay_cells, 0u);
  EXPECT_GT(xdrop_replay, 0u);
  EXPECT_LE(out.traceback_cells, out.cells);
  EXPECT_GT(out.time_ms, 0.0);
  EXPECT_EQ(out.traceback_ms, 0.0);
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
