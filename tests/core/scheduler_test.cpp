// BatchScheduler invariants: sharded + async output is element-wise
// identical to the single-batch path on both backends, input order is
// preserved no matter how shards complete, stats aggregate exactly,
// spreading a length-skewed batch over more simulated devices reduces the
// reported wall time, and shards run where the phase runner says: one busy
// lane on the caller's thread, several on one task each, in shard order.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

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

/// A backend that aligns nothing: each call records its phase, lane,
/// calling thread and inputs (pair ids or task ids) once it is done, and
/// answers input i with i (score, trace start, chain score), so merges can
/// be checked against input order. Pair i of an id_batch has a query of
/// i + 1 bases. Calls on `failing_lane` throw; the other lanes first sleep
/// for `delay`, so a runner that rethrew early would miss their calls.
class RecordingBackend final : public AlignBackend {
 public:
  struct Call {
    std::string phase;
    int lane = 0;
    std::thread::id thread;
    std::vector<std::size_t> inputs;
  };

  explicit RecordingBackend(int lanes, int failing_lane = -1,
                            std::chrono::milliseconds delay = std::chrono::milliseconds(0))
      : lanes_(lanes), failing_lane_(failing_lane), delay_(delay) {}

  const std::string& name() const override { return name_; }
  int lanes() const override { return lanes_; }

  PhaseOutput<align::AlignmentResult> run(const seq::PairBatch& batch, int lane) override {
    const std::vector<std::size_t> ids = pair_ids(batch);
    finish("run", lane, ids);
    PhaseOutput<align::AlignmentResult> out;
    for (std::size_t id : ids) out.items.push_back({static_cast<align::Score>(id), 0, 0});
    out.time_ms = 1.0;
    return out;
  }

  TracedRun run_traced(const seq::PairBatch& batch, int lane) override {
    const std::vector<std::size_t> ids = pair_ids(batch);
    finish("traced", lane, ids);
    TracedRun out;
    for (std::size_t id : ids) {
      align::TracedAlignment t;
      t.end = {static_cast<align::Score>(id), 0, 0};
      t.ref_start = static_cast<std::int32_t>(id);
      out.score.items.push_back(t.end);
      out.trace.items.push_back(t);
    }
    out.score.time_ms = 1.0;
    return out;
  }

  PhaseOutput<std::vector<seedext::Chain>> run_chaining(const seedext::ChainBatch&,
                                                        std::span<const std::size_t> tasks,
                                                        int lane) override {
    const std::vector<std::size_t> ids(tasks.begin(), tasks.end());
    finish("chain", lane, ids);
    PhaseOutput<std::vector<seedext::Chain>> out;
    for (std::size_t id : ids) {
      seedext::Chain chain;
      chain.score = static_cast<std::int64_t>(id);
      out.items.push_back({chain});
    }
    return out;
  }

  std::vector<Call> calls(const std::string& phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Call> mine;
    for (const Call& c : calls_) {
      if (c.phase == phase) mine.push_back(c);
    }
    return mine;
  }

 private:
  static std::vector<std::size_t> pair_ids(const seq::PairBatch& batch) {
    std::vector<std::size_t> ids;
    for (const auto& query : batch.queries) ids.push_back(query.size() - 1);
    return ids;
  }

  void finish(const std::string& phase, int lane, const std::vector<std::size_t>& inputs) {
    if (lane != failing_lane_) std::this_thread::sleep_for(delay_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.push_back({phase, lane, std::this_thread::get_id(), inputs});
    }
    if (lane == failing_lane_) throw std::runtime_error("lane " + std::to_string(lane));
  }

  int lanes_;
  int failing_lane_;
  std::chrono::milliseconds delay_;
  std::string name_ = "recording";
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

/// `pairs` pairs whose query lengths encode their input index (see
/// RecordingBackend); reference lengths vary so sorted packing reorders them.
seq::PairBatch id_batch(std::size_t pairs) {
  seq::PairBatch batch;
  for (std::size_t i = 0; i < pairs; ++i) {
    batch.add(std::vector<seq::BaseCode>(i + 1, 0), std::vector<seq::BaseCode>(1 + (i * 7) % 11, 1));
  }
  return batch;
}

/// `tasks` chaining tasks of 1..tasks seeds, so their work differs.
seedext::ChainBatch id_chain_batch(std::size_t tasks) {
  seedext::ChainBatch batch;
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<seedext::Seed> seeds;
    for (std::uint32_t s = 0; s <= t; ++s) seeds.push_back({s * 30, 1000 + s * 30, 20});
    batch.add_task(std::move(seeds));
  }
  return batch;
}

/// The shard id of each call: the shard whose pair positions it received.
std::vector<std::size_t> shard_ids(const std::vector<RecordingBackend::Call>& calls,
                                   const std::vector<gpusim::Shard>& shards) {
  std::vector<std::size_t> ids;
  for (const auto& call : calls) {
    auto it = std::find_if(shards.begin(), shards.end(),
                           [&](const gpusim::Shard& s) { return s.indices == call.inputs; });
    EXPECT_NE(it, shards.end()) << "a call matched no shard";
    ids.push_back(static_cast<std::size_t>(it - shards.begin()));
  }
  return ids;
}

TEST(BatchScheduler, OneBusyLaneRunsEveryShardOnTheCallersThreadInShardOrder) {
  RecordingBackend backend(1);
  const seq::PairBatch batch = id_batch(12);
  SchedulerOptions opts;
  opts.max_shard_pairs = 3;
  opts.traceback = true;
  BatchScheduler scheduler(&backend, opts);
  const auto out = scheduler.run(batch);
  const auto chained = scheduler.chain(id_chain_batch(5));

  const auto shards = gpusim::make_shards(batch, lane_weights(backend), opts.policy, 3);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(out.schedule.shards, 4u);
  const std::vector<std::size_t> in_order{0, 1, 2, 3};
  // A traced run is one wave: run_traced per shard, no score-only run.
  EXPECT_TRUE(backend.calls("run").empty());
  const auto calls = backend.calls("traced");
  EXPECT_EQ(shard_ids(calls, shards), in_order);
  for (const auto& call : calls) EXPECT_EQ(call.thread, std::this_thread::get_id());
  const auto chain_calls = backend.calls("chain");
  ASSERT_EQ(chain_calls.size(), 1u);
  EXPECT_EQ(chain_calls[0].thread, std::this_thread::get_id());
  EXPECT_EQ(chain_calls[0].inputs, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.results[i].score, static_cast<align::Score>(i));
    EXPECT_EQ(out.traced[i].ref_start, static_cast<std::int32_t>(i));
  }
  for (std::size_t t = 0; t < chained.items.size(); ++t) {
    EXPECT_EQ(chained.items[t].at(0).score, static_cast<std::int64_t>(t));
  }
}

TEST(BatchScheduler, EachBusyLaneDrainsItsShardsInOrderOnOneTask) {
  RecordingBackend backend(3);
  const seq::PairBatch batch = id_batch(18);
  SchedulerOptions opts;
  opts.max_shard_pairs = 2;
  opts.traceback = true;
  BatchScheduler scheduler(&backend, opts);
  const auto out = scheduler.run(batch);
  const auto chained = scheduler.chain(id_chain_batch(6));

  const auto shards = gpusim::make_shards(batch, lane_weights(backend), opts.policy, 2);
  ASSERT_EQ(shards.size(), 9u);
  EXPECT_EQ(out.schedule.busy_lanes, 3);
  EXPECT_TRUE(backend.calls("run").empty());
  const auto calls = backend.calls("traced");
  const auto ids = shard_ids(calls, shards);
  ASSERT_EQ(ids.size(), shards.size());
  for (int lane = 0; lane < 3; ++lane) {
    std::vector<std::size_t> expected;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (shards[s].lane == lane) expected.push_back(s);
    }
    ASSERT_GE(expected.size(), 2u) << "lane " << lane;
    std::vector<std::size_t> ran;
    std::thread::id thread;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      if (calls[c].lane != lane) continue;
      if (ran.empty()) thread = calls[c].thread;
      EXPECT_EQ(calls[c].thread, thread) << "lane " << lane;
      ran.push_back(ids[c]);
    }
    EXPECT_EQ(ran, expected) << "lane " << lane;
    EXPECT_NE(thread, std::this_thread::get_id()) << "lane " << lane;
  }
  const auto chain_calls = backend.calls("chain");
  ASSERT_EQ(chain_calls.size(), 3u);
  for (const auto& call : chain_calls) EXPECT_NE(call.thread, std::this_thread::get_id());

  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.results[i].score, static_cast<align::Score>(i));
    EXPECT_EQ(out.traced[i].ref_start, static_cast<std::int32_t>(i));
  }
  ASSERT_EQ(chained.items.size(), 6u);
  for (std::size_t t = 0; t < chained.items.size(); ++t) {
    EXPECT_EQ(chained.items[t].at(0).score, static_cast<std::int64_t>(t));
  }
}

TEST(BatchScheduler, FailingLaneRethrowsAfterTheOtherLanesFinish) {
  RecordingBackend backend(3, /*failing_lane=*/1, std::chrono::milliseconds(20));
  const seq::PairBatch batch = id_batch(18);
  SchedulerOptions opts;
  opts.max_shard_pairs = 2;
  try {
    BatchScheduler(&backend, opts).run(batch);
    ADD_FAILURE() << "expected lane 1's failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");
  }
  const auto calls = backend.calls("run");
  const auto shards = gpusim::make_shards(batch, lane_weights(backend), opts.policy, 2);
  for (int lane : {0, 2}) {
    std::vector<std::size_t> expected;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (shards[s].lane == lane) expected.push_back(s);
    }
    std::vector<RecordingBackend::Call> mine;
    for (const auto& call : calls) {
      if (call.lane == lane) mine.push_back(call);
    }
    EXPECT_EQ(shard_ids(mine, shards), expected) << "lane " << lane;
  }
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
