// BatchScheduler invariants: sharded + async output is element-wise
// identical to the single-batch path on both backends, input order is
// preserved no matter how shards complete, stats aggregate exactly, and
// spreading a length-skewed batch over more simulated devices reduces the
// reported wall time.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "core/aligner.hpp"
#include "core/autotune.hpp"
#include "core/backend.hpp"
#include "core/workload.hpp"

namespace saloba::core {
namespace {

AlignerOptions sim_options(int devices) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.device = "gtx1650";
  opts.devices = devices;
  return opts;
}

/// Runs `batch` through a BatchScheduler over the simulated backend `opts`
/// builds, with shards capped at `max_shard_pairs` (sorted packing).
AlignOutput run_sim(const seq::PairBatch& batch, const AlignerOptions& opts,
                    std::size_t max_shard_pairs) {
  SimulatedGpuBackend backend(opts);
  SchedulerOptions sched;
  sched.max_shard_pairs = max_shard_pairs;
  return BatchScheduler(&backend, sched).run(batch);
}

TEST(BatchScheduler, ShardedCpuMatchesSingleBatch) {
  auto batch = saloba::testing::imbalanced_batch(601, 37, 20, 400);
  AlignerOptions plain;  // CPU, one shard
  auto expected = Aligner(plain).align(batch);

  HostBackend backend{plain.scoring};
  SchedulerOptions sharded;
  sharded.max_shard_pairs = 5;  // 8 shards on one lane
  auto out = BatchScheduler(&backend, sharded).run(batch);

  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.cells, expected.cells);
  EXPECT_EQ(out.schedule.shards, 8u);
  EXPECT_FALSE(out.kernel_stats.has_value());
}

TEST(BatchScheduler, ShardedSimMatchesSingleBatch) {
  auto batch = saloba::testing::imbalanced_batch(602, 33, 30, 500);
  auto expected = Aligner(sim_options(1)).align(batch);
  auto out = run_sim(batch, sim_options(2), 6);
  EXPECT_EQ(out.results, expected.results);
  ASSERT_TRUE(out.kernel_stats.has_value());
  // Functional work is conserved exactly across shards.
  EXPECT_EQ(out.kernel_stats->totals.dp_cells, expected.kernel_stats->totals.dp_cells);
}

TEST(BatchScheduler, OrderPreservedUnderUnequalShardCompletion) {
  // Wildly skewed pair sizes + sorted packing: shards finish at very
  // different times and in an order unrelated to input order.
  util::Xoshiro256 rng(603);
  seq::PairBatch batch;
  for (int i = 0; i < 48; ++i) {
    std::size_t len = rng.bernoulli(0.2) ? 1200 : 40;
    batch.add(saloba::testing::random_seq(rng, len), saloba::testing::random_seq(rng, len));
  }
  auto expected = align::align_batch(batch, align::ScoringScheme{});
  for (int devices : {1, 2, 3}) {
    auto out = run_sim(batch, sim_options(devices), 4);
    ASSERT_EQ(out.results.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out.results[i], expected[i]) << "devices=" << devices << " pair " << i;
    }
  }
}

TEST(BatchScheduler, StatsAndTimesAggregateAcrossShards) {
  auto batch = saloba::testing::related_batch(604, 24, 150, 200);
  auto out = run_sim(batch, sim_options(2), 5);

  ASSERT_TRUE(out.time_breakdown.has_value());
  EXPECT_EQ(out.schedule.lanes, 2);
  ASSERT_EQ(out.schedule.lane_ms.size(), 2u);
  double lane_sum = 0.0;
  double lane_max = 0.0;
  for (double ms : out.schedule.lane_ms) {
    EXPECT_GE(ms, 0.0);
    lane_sum += ms;
    lane_max = std::max(lane_max, ms);
  }
  EXPECT_DOUBLE_EQ(out.schedule.makespan_ms, lane_max);
  EXPECT_DOUBLE_EQ(out.time_ms, out.schedule.makespan_ms);
  EXPECT_GT(out.schedule.imbalance, 0.0);
  // gcups is computed once, from the merged output.
  EXPECT_DOUBLE_EQ(out.gcups, static_cast<double>(out.cells) / (out.time_ms * 1e6));
}

TEST(BatchScheduler, MultiDeviceReducesWallTimeOnDatasetB) {
  // Acceptance: devices >= 2 on the dataset B' workload beats one device.
  auto genome = make_genome(1 << 20, 77);
  auto ds = make_dataset_b(genome, 40, 7);
  ASSERT_GT(ds.batch.size(), 8u);

  AlignerOptions one = sim_options(1);
  one.kernel = "saloba-sw16";
  AlignerOptions two = sim_options(2);
  two.kernel = "saloba-sw16";
  auto t1 = Aligner(one).align(ds.batch);
  auto t2 = Aligner(two).align(ds.batch);
  EXPECT_EQ(t1.results, t2.results);
  EXPECT_LT(t2.time_ms, t1.time_ms);
  EXPECT_EQ(t2.schedule.shards, 2u);
}

TEST(BatchScheduler, EmptyBatchYieldsEmptyOutput) {
  seq::PairBatch empty;
  auto out = run_sim(empty, sim_options(2), 3);
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.schedule.shards, 0u);
  EXPECT_DOUBLE_EQ(out.time_ms, 0.0);
}

TEST(BatchScheduler, SingleShardFastPathReportsOneShard) {
  auto batch = saloba::testing::related_batch(605, 10, 80, 100);
  auto out = Aligner(sim_options(1)).align(batch);
  EXPECT_EQ(out.schedule.shards, 1u);
  EXPECT_EQ(out.schedule.lanes, 1);
  ASSERT_EQ(out.schedule.lane_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(out.schedule.lane_ms[0], out.time_ms);
}

TEST(BatchScheduler, DirectSchedulerUseOverHostBackend) {
  // The scheduler is usable without the Aligner facade.
  auto batch = saloba::testing::imbalanced_batch(606, 21, 10, 300);
  HostBackend backend{align::ScoringScheme{}};
  SchedulerOptions sched;
  sched.max_shard_pairs = 4;
  BatchScheduler scheduler(&backend, sched);
  auto out = scheduler.run(batch);
  EXPECT_EQ(out.results, align::align_batch(batch, align::ScoringScheme{}));
  EXPECT_EQ(out.schedule.shards, 6u);
}

TEST(BatchScheduler, IdleLanesRaiseReportedImbalance) {
  // One pair over four simulated devices lands on a single lane. The old
  // busy-lane-mean normalization called that "imbalance 1.0 (balanced)";
  // counting all lanes it is 4.0, with busy_lanes exposing the 1/4.
  seq::PairBatch one;
  util::Xoshiro256 rng(608);
  one.add(saloba::testing::random_seq(rng, 100), saloba::testing::random_seq(rng, 120));
  auto out = Aligner(sim_options(4)).align(one);
  EXPECT_EQ(out.schedule.lanes, 4);
  EXPECT_EQ(out.schedule.busy_lanes, 1);
  EXPECT_DOUBLE_EQ(out.schedule.imbalance, 4.0);
}

TEST(BatchScheduler, BalancedLanesStillReportNearOneImbalance) {
  // Two simulated devices run one shard each concurrently, with results
  // bit-identical to the host backend's.
  auto batch = saloba::testing::related_batch(609, 32, 150, 150);
  auto out = Aligner(sim_options(2)).align(batch);
  EXPECT_EQ(out.results, Aligner(AlignerOptions{}).align(batch).results);
  EXPECT_EQ(out.schedule.shards, 2u);
  EXPECT_EQ(out.schedule.busy_lanes, 2);
  EXPECT_GE(out.schedule.imbalance, 1.0);
  EXPECT_LT(out.schedule.imbalance, 1.5);
}

TEST(BatchScheduler, MixedPresetAlignerMatchesHomogeneousResults) {
  // Heterogeneous lanes are a cost property only: a gtx1650+rtx3090 run
  // returns exactly the single-device results, with weights in the report.
  auto batch = saloba::testing::imbalanced_batch(610, 40, 30, 500);
  auto expected = Aligner(sim_options(1)).align(batch);

  AlignerOptions mixed = sim_options(1);
  mixed.device = "gtx1650,rtx3090";
  auto out = Aligner(mixed).align(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.schedule.lanes, 2);
  ASSERT_EQ(out.schedule.lane_weights.size(), 2u);
  EXPECT_DOUBLE_EQ(out.schedule.lane_weights[0], 1.0);
  EXPECT_GT(out.schedule.lane_weights[1], 1.0);
}

TEST(BatchScheduler, WeightedLptBeatsUniformLptOnMixedPresets) {
  // Acceptance: on a skewed batch over gtx1650+rtx3090, the cost-aware
  // partition yields strictly lower simulated makespan than treating both
  // lanes as equal, and the results are identical either way.
  util::Xoshiro256 rng(611);
  seq::PairBatch batch;
  for (int i = 0; i < 160; ++i) {
    std::size_t len = rng.bernoulli(0.15) ? 800 + rng.below(1200) : 40 + rng.below(120);
    batch.add(saloba::testing::random_seq(rng, len), saloba::testing::random_seq(rng, len));
  }

  AlignerOptions mixed = sim_options(1);
  mixed.device = "gtx1650,rtx3090";
  auto backend = make_backend(mixed);
  const auto weighted = lane_weights(*backend);
  const std::vector<double> uniform(weighted.size(), 1.0);
  // The weight-aware autotuner's shard cap for both schemes, so the
  // comparison isolates the lane-assignment policy; shards stay large
  // enough that per-shard launch overhead doesn't dominate.
  const std::size_t cap = recommend_scheduler(stats_of(batch), weighted).max_shard_pairs;
  ASSERT_GT(cap, 0u);

  auto run_scheme = [&](const std::vector<double>& weights) {
    std::vector<double> lane_ms(weights.size(), 0.0);
    std::vector<align::AlignmentResult> results(batch.size());
    for (const auto& shard :
         gpusim::make_shards(batch, weights, gpusim::SplitPolicy::kSorted, cap)) {
      auto bo = backend->run(shard.batch, shard.lane);
      lane_ms[static_cast<std::size_t>(shard.lane)] += bo.time_ms;
      for (std::size_t i = 0; i < shard.indices.size(); ++i) {
        results[shard.indices[i]] = bo.items[i];
      }
    }
    return std::pair{*std::max_element(lane_ms.begin(), lane_ms.end()), results};
  };

  auto [uniform_makespan, uniform_results] = run_scheme(uniform);
  auto [weighted_makespan, weighted_results] = run_scheme(weighted);
  EXPECT_LT(weighted_makespan, uniform_makespan);
  EXPECT_EQ(weighted_results, uniform_results);
}

TEST(BatchScheduler, ShardExceptionsPropagate) {
  // ADEPT's 1024 bp structural limit must surface through the async path.
  auto batch = saloba::testing::imbalanced_batch(607, 12, 2000, 2100);
  AlignerOptions opts = sim_options(2);
  opts.kernel = "adept";
  EXPECT_THROW(run_sim(batch, opts, 3), kernels::KernelUnsupportedError);
}

}  // namespace
}  // namespace saloba::core
