// The chaining phase as a scheduler/backend concern: identical chains across
// backends, lane counts, and lane weights; modeled phase cost on simulated
// devices (the Phase::kChaining breakdown + counter slots); and the
// Aligner::batch_chainer → ReadMapper::set_batch_chainer end-to-end wiring.
#include <gtest/gtest.h>

#include <random>

#include "core/aligner.hpp"
#include "core/backend.hpp"
#include "core/scheduler.hpp"
#include "seedext/chain_batch.hpp"
#include "seedext/chaining.hpp"
#include "seedext/pipeline.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::core {
namespace {

seedext::ChainBatch test_chain_batch(std::uint64_t seed, std::size_t tasks,
                                     const seedext::ChainingParams& params = {}) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_int_distribution<int> ndist(0, 200);
  std::uniform_int_distribution<std::uint32_t> qdist(0, 2200);
  std::uniform_int_distribution<std::uint32_t> ddist(0, 250);
  std::uniform_int_distribution<std::uint32_t> ldist(1, 30);
  seedext::ChainBatch batch(params);
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<seedext::Seed> seeds;
    const int n = ndist(rng);
    seeds.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::uint32_t qpos = qdist(rng);
      seeds.push_back(seedext::Seed{qpos, 30000 + qpos + ddist(rng), ldist(rng)});
    }
    batch.add_task(std::move(seeds));
  }
  return batch;
}

std::vector<std::vector<seedext::Chain>> oracle_chains(const seedext::ChainBatch& batch) {
  std::vector<std::vector<seedext::Chain>> out(batch.tasks());
  for (std::size_t t = 0; t < batch.tasks(); ++t) {
    out[t] = seedext::chain_seeds(batch.task_seeds(t), batch.params());
  }
  return out;
}

TEST(ChainingPhase, CpuSingleLaneMatchesOracle) {
  auto batch = test_chain_batch(11, 40);
  AlignerOptions opts;  // CPU backend, one lane
  auto backend = make_backend(opts);
  BatchScheduler sched(backend.get());
  auto out = sched.chain(batch);
  EXPECT_EQ(out.items, oracle_chains(batch));
  EXPECT_EQ(out.schedule.shards, 1u);
  EXPECT_GT(out.work, 0u);
}

TEST(ChainingPhase, ShardedMultiLaneMatchesSingleLane) {
  auto batch = test_chain_batch(12, 55);
  auto expected = oracle_chains(batch);

  // CPU, one lane: one shard.
  auto cpu_backend = make_backend(AlignerOptions{});
  BatchScheduler cpu_sched(cpu_backend.get());
  auto cpu_out = cpu_sched.chain(batch);
  EXPECT_EQ(cpu_out.items, expected);
  EXPECT_EQ(cpu_out.schedule.shards, 1u);

  // Simulated, two to five identical devices: one shard per lane.
  for (int lanes : {2, 3, 5}) {
    AlignerOptions uniform;
    uniform.backend = Backend::kSimulated;
    uniform.device = "gtx1650";
    uniform.devices = lanes;
    auto uniform_backend = make_backend(uniform);
    BatchScheduler uniform_sched(uniform_backend.get());
    auto out = uniform_sched.chain(batch);
    EXPECT_EQ(out.items, expected) << "lanes " << lanes;
    EXPECT_EQ(out.schedule.shards, static_cast<std::size_t>(lanes)) << "lanes " << lanes;
    EXPECT_EQ(out.schedule.lanes, lanes) << "lanes " << lanes;
    EXPECT_EQ(out.work, cpu_out.work) << "lanes " << lanes;
  }

  // Simulated, two unequal devices (weighted LPT) — still the same chains.
  AlignerOptions sim;
  sim.backend = Backend::kSimulated;
  sim.device = "gtx1650,rtx3090";
  auto sim_backend = make_backend(sim);
  BatchScheduler sim_sched(sim_backend.get());
  auto sim_out = sim_sched.chain(batch);
  EXPECT_EQ(sim_out.items, expected);
  EXPECT_EQ(sim_out.schedule.shards, 2u);

  // Structural counters agree across executions.
  EXPECT_EQ(cpu_out.work, sim_out.work);
}

TEST(ChainingPhase, SimulatedBackendModelsPhaseCost) {
  auto batch = test_chain_batch(13, 20);
  AlignerOptions sim;
  sim.backend = Backend::kSimulated;
  auto backend = make_backend(sim);
  BatchScheduler sched(backend.get());
  auto out = sched.chain(batch);

  EXPECT_EQ(out.items, oracle_chains(batch));
  // Modeled, not measured: the phase time comes from the chaining cost
  // model and lands in the breakdown + kernel counters.
  ASSERT_TRUE(out.time_breakdown.has_value());
  EXPECT_GT(out.time_breakdown->phase_ms[gpusim::Phase::kChaining], 0.0);
  EXPECT_GT(out.time_ms, 0.0);
  ASSERT_TRUE(out.kernel_stats.has_value());
  const gpusim::PhaseCost& chaining = out.kernel_stats->totals.phases[gpusim::Phase::kChaining];
  EXPECT_EQ(chaining.work, out.work);
  EXPECT_GT(chaining.bytes, 0u);
}

TEST(ChainingPhase, EmptyBatchIsANoOp) {
  seedext::ChainBatch batch;
  AlignerOptions opts;
  auto backend = make_backend(opts);
  BatchScheduler sched(backend.get());
  auto out = sched.chain(batch);
  EXPECT_TRUE(out.items.empty());
  EXPECT_EQ(out.work, 0u);
  EXPECT_DOUBLE_EQ(out.time_ms, 0.0);
}

TEST(ChainingPhase, MapperWithInjectedChainerMatchesDefault) {
  // End-to-end: routing the mapper's chaining stage through the scheduler
  // phase must not change a single mapping.
  seq::GenomeParams gp;
  gp.length = 120000;
  gp.n_fraction = 0.0;
  gp.seed = 99;
  auto genome = seq::generate_genome(gp);
  seq::ReadProfile profile = seq::ReadProfile::equal_length(140);
  seq::ReadSimulator sim(genome, profile, 17);
  std::vector<std::vector<seq::BaseCode>> reads;
  for (const auto& r : sim.simulate(30)) reads.push_back(r.read.bases);

  seedext::ReadMapper plain(genome, seedext::MapperParams{});
  Aligner extender(AlignerOptions{});
  auto extend = extender.batch_extender();
  auto want = plain.map_batch(reads, extend);

  AlignerOptions chain_opts;  // three simulated lanes: the phase really shards
  chain_opts.backend = Backend::kSimulated;
  chain_opts.devices = 3;
  Aligner chain_aligner(chain_opts);
  seedext::ReadMapper routed(genome, seedext::MapperParams{});
  routed.set_batch_chainer(chain_aligner.batch_chainer());
  seedext::MapStats stats;
  auto got = routed.map_batch(reads, extend, nullptr, &stats);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mapped, want[i].mapped) << "read " << i;
    EXPECT_EQ(got[i].ref_pos, want[i].ref_pos) << "read " << i;
    EXPECT_EQ(got[i].reverse_strand, want[i].reverse_strand) << "read " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "read " << i;
  }
  // Two tasks per read went through the phase.
  EXPECT_EQ(stats.chain_tasks, reads.size() * 2);
  EXPECT_GT(stats.chain_anchors, 0u);
}

}  // namespace
}  // namespace saloba::core
