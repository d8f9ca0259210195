// Conformance layer for the batched forward-only chaining engine: every
// output must be bit-identical to the sequential chain_seeds oracle —
// across seed counts (either side of the lookahead window), dense repeat
// pileups, both strand shapes, out-of-envelope tasks (scalar routing), and
// thread counts / repeated runs (determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "seedext/chain_batch.hpp"
#include "seedext/chain_engine.hpp"
#include "seedext/chaining.hpp"

namespace saloba::seedext {
namespace {

std::vector<Seed> random_anchor_set(std::mt19937& rng, std::size_t n, std::uint32_t qspan,
                                    std::uint32_t diag_spread, std::uint32_t max_len) {
  std::uniform_int_distribution<std::uint32_t> qdist(0, qspan);
  std::uniform_int_distribution<std::uint32_t> ddist(0, diag_spread);
  std::uniform_int_distribution<std::uint32_t> ldist(1, max_len);
  std::vector<Seed> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t qpos = qdist(rng);
    seeds.push_back(Seed{qpos, 20000 + qpos + ddist(rng), ldist(rng)});
  }
  return seeds;
}

void expect_matches_oracle(const std::vector<Seed>& seeds, const ChainingParams& params,
                           const char* what) {
  auto oracle = chain_seeds(seeds, params);
  ChainBatch batch(params);
  batch.add_task(seeds);
  const std::vector<Chain> engine = chain_batch_run(batch).at(0);
  ASSERT_EQ(engine.size(), oracle.size()) << what;
  for (std::size_t c = 0; c < oracle.size(); ++c) {
    EXPECT_EQ(engine[c].score, oracle[c].score) << what << " chain " << c;
    EXPECT_EQ(engine[c].truncated, oracle[c].truncated) << what << " chain " << c;
    ASSERT_EQ(engine[c].seeds, oracle[c].seeds) << what << " chain " << c;
  }
}

// --- Seed-count sweep across the lookahead boundary ----------------------

TEST(ChainConformance, SeedCountSweep) {
  // 0..2 trivially; then counts straddling kChainLookahead (64) and the
  // 8-lane vector width, where settlement and push paths trade off.
  std::mt19937 rng(101);
  for (std::size_t n :
       {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 31u, 63u, 64u, 65u, 72u, 127u, 128u, 129u, 300u}) {
    for (int rep = 0; rep < 4; ++rep) {
      auto seeds = random_anchor_set(rng, n, 1500, 200, 30);
      expect_matches_oracle(seeds, ChainingParams{}, "sweep");
    }
  }
}

TEST(ChainConformance, WidePositionsForceSettlement) {
  // Large qpos span with a generous max_gap: eligible predecessors reach far
  // beyond the lookahead window, so the exact settlement pass must carry
  // the recurrence, not the vector pushes.
  std::mt19937 rng(202);
  ChainingParams params;
  params.max_gap = 50000;
  params.max_diag_drift = 5000;
  for (int rep = 0; rep < 10; ++rep) {
    auto seeds = random_anchor_set(rng, 220, 40000, 4000, 30);
    expect_matches_oracle(seeds, params, "settlement");
  }
}

TEST(ChainConformance, DenseRepeatsPileUpOnFewDiagonals) {
  // Repeat pileups: hundreds of anchors sharing a handful of qpos values —
  // ties everywhere, so the earliest-j tie-break is what's under test.
  std::mt19937 rng(303);
  std::uniform_int_distribution<std::uint32_t> qdist(0, 40);
  std::uniform_int_distribution<std::uint32_t> ddist(0, 8);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<Seed> seeds;
    for (int i = 0; i < 400; ++i) {
      const std::uint32_t qpos = qdist(rng) * 10;
      seeds.push_back(Seed{qpos, 5000 + qpos + ddist(rng), 10});
    }
    ChainingParams params;
    params.top_n = 8;
    params.drop_ratio = 0.0;
    expect_matches_oracle(seeds, params, "repeats");
  }
}

TEST(ChainConformance, BothStrandShapes) {
  // A forward-strand anchor run and its mirrored (reverse-complement
  // projection) counterpart — rpos descending with qpos before sorting.
  std::mt19937 rng(404);
  for (int rep = 0; rep < 10; ++rep) {
    auto fwd = random_anchor_set(rng, 120, 2000, 150, 25);
    std::vector<Seed> rev;
    rev.reserve(fwd.size());
    for (const Seed& s : fwd) {
      rev.push_back(Seed{2000 - std::min<std::uint32_t>(s.qpos, 2000), s.rpos, s.len});
    }
    expect_matches_oracle(fwd, ChainingParams{}, "fwd strand");
    expect_matches_oracle(rev, ChainingParams{}, "rev strand");
  }
}

TEST(ChainConformance, ParameterFuzz) {
  std::mt19937 rng(505);
  std::uniform_int_distribution<int> ndist(1, 300);
  for (int rep = 0; rep < 40; ++rep) {
    ChainingParams params;
    params.max_gap = 1 + rep * 37 % 2000;
    params.max_diag_drift = 1 + rep * 53 % 800;
    params.gap_cost_num = 1 + rep * 29 % 512;
    params.top_n = 1 + rep % 6;
    params.drop_ratio = (rep % 4) * 0.3;
    auto seeds = random_anchor_set(rng, static_cast<std::size_t>(ndist(rng)), 3000, 600, 40);
    expect_matches_oracle(seeds, params, "param fuzz");
  }
}

// --- Envelope guard: out-of-range tasks route to the scalar oracle --------

TEST(ChainConformance, OutOfEnvelopeTaskStaysExact) {
  // Positions past 2^30 and a seed length past 2^20 both break the int32
  // exactness proof; the engine must route those tasks to the scalar DP and
  // still match the oracle bit for bit.
  ChainingParams params;
  params.max_gap = 100000;

  std::vector<Seed> huge_pos{{1u << 30, (1u << 30) + 1000, 30},
                             {(1u << 30) + 60, (1u << 30) + 1060, 30}};
  std::vector<Seed> huge_len{{0, 1000, (1u << 20) + 5}, {1u << 21, (1u << 21) + 1000, 30}};

  for (const auto& seeds : {huge_pos, huge_len}) {
    ChainBatch batch(params);
    batch.add_task(seeds);
    EXPECT_FALSE(batch.task_simd_safe(0));
    ChainEngineStats stats;
    auto out = chain_batch_run(batch, &stats);
    EXPECT_EQ(stats.scalar_tasks, 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], chain_seeds(seeds, params));
  }
}

// --- Batched execution: thread counts, repetition, sharding ---------------

ChainBatch mixed_batch(std::mt19937& rng, std::size_t tasks, const ChainingParams& params) {
  ChainBatch batch(params);
  std::uniform_int_distribution<int> ndist(0, 220);
  for (std::size_t t = 0; t < tasks; ++t) {
    batch.add_task(random_anchor_set(rng, static_cast<std::size_t>(ndist(rng)), 2500, 300, 30));
  }
  return batch;
}

TEST(ChainConformance, ThreadCountsAndRerunsAreDeterministic) {
  std::mt19937 rng(606);
  ChainBatch batch = mixed_batch(rng, 48, ChainingParams{});

  auto serial = chain_batch_run(batch, nullptr, /*threads=*/1);
  auto team = chain_batch_run(batch, nullptr, /*threads=*/4);
  auto again = chain_batch_run(batch, nullptr, /*threads=*/4);
  ASSERT_EQ(serial.size(), batch.tasks());
  EXPECT_EQ(team, serial);
  EXPECT_EQ(again, serial);

  // And each task equals its own sequential oracle run.
  for (std::size_t t = 0; t < batch.tasks(); ++t) {
    EXPECT_EQ(serial[t], chain_seeds(batch.task_seeds(t), batch.params())) << "task " << t;
  }
}

TEST(ChainConformance, StructuralCountersAreRunInvariant) {
  // pushes/settled are candidate counts, not accepted updates — identical
  // across thread counts and repeated runs (the scheduling-proof stats).
  std::mt19937 rng(707);
  ChainBatch batch = mixed_batch(rng, 24, ChainingParams{});
  ChainEngineStats a, b;
  chain_batch_run(batch, &a, 1);
  chain_batch_run(batch, &b, 4);
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.tasks, b.tasks);
}

TEST(ChainConformance, ShardsPartitionTasks) {
  std::mt19937 rng(808);
  ChainBatch batch = mixed_batch(rng, 37, ChainingParams{});

  const std::vector<std::vector<double>> weight_sets = {
      {1.0}, {1.0, 1.0}, {1.0, 2.0, 0.5}, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}};
  for (const std::vector<double>& weights : weight_sets) {
    auto shards = make_chain_shards(batch, weights);
    std::vector<int> seen(batch.tasks(), 0);
    std::vector<int> lane_shards(weights.size(), 0);
    for (const ChainShard& s : shards) {
      EXPECT_FALSE(s.tasks.empty());
      ASSERT_GE(s.lane, 0);
      ASSERT_LT(s.lane, static_cast<int>(weights.size()));
      ++lane_shards[static_cast<std::size_t>(s.lane)];
      std::size_t work = 0;
      for (std::size_t t : s.tasks) {
        ASSERT_LT(t, batch.tasks());
        ++seen[t];
        work += batch.task_work(t);
      }
      EXPECT_EQ(s.work, work);
    }
    // One shard per lane, and an exact partition: every task exactly once.
    EXPECT_TRUE(std::all_of(lane_shards.begin(), lane_shards.end(), [](int c) { return c <= 1; }))
        << weights.size() << " lanes";
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int c) { return c == 1; }))
        << weights.size() << " lanes";
  }
}

TEST(ChainConformance, ShardedRunsMatchUnsharded) {
  std::mt19937 rng(909);
  ChainBatch batch = mixed_batch(rng, 30, ChainingParams{});
  auto expected = chain_batch_run(batch);

  for (const std::vector<double>& weights :
       {std::vector<double>{1.0, 1.5}, std::vector<double>{0.5, 1.0, 1.0, 3.0}}) {
    auto shards = make_chain_shards(batch, weights);
    std::vector<std::vector<Chain>> out(batch.tasks());
    for (const ChainShard& s : shards) {
      auto chains = chain_tasks_run(batch, s.tasks);
      ASSERT_EQ(chains.size(), s.tasks.size());
      for (std::size_t k = 0; k < s.tasks.size(); ++k) out[s.tasks[k]] = std::move(chains[k]);
    }
    EXPECT_EQ(out, expected) << weights.size() << " lanes";
  }
}

}  // namespace
}  // namespace saloba::seedext
