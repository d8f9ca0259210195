#include "gpusim/multi_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "../support/test_support.hpp"

namespace saloba::gpusim {
namespace {

/// DP cells each of `devices` lanes receives from make_shards — the load a
/// lane's simulated time follows.
std::vector<std::uint64_t> lane_cells(const seq::PairBatch& batch, int devices,
                                      SplitPolicy policy) {
  std::vector<std::uint64_t> cells(static_cast<std::size_t>(devices), 0);
  for (const Shard& s : make_shards(batch, devices, policy)) {
    cells.at(static_cast<std::size_t>(s.lane)) += s.batch.total_cells();
  }
  return cells;
}

std::uint64_t makespan(const std::vector<std::uint64_t>& cells) {
  return *std::max_element(cells.begin(), cells.end());
}

/// makespan / mean lane load over every lane, idle ones included.
double imbalance(const std::vector<std::uint64_t>& cells) {
  const double sum = static_cast<double>(std::accumulate(cells.begin(), cells.end(),
                                                         std::uint64_t{0}));
  return static_cast<double>(makespan(cells)) / (sum / static_cast<double>(cells.size()));
}

TEST(MultiDevice, ShardsPartitionTheBatch) {
  auto batch = saloba::testing::imbalanced_batch(402, 41, 10, 100);
  for (auto policy : {SplitPolicy::kStatic, SplitPolicy::kSorted}) {
    auto shards = make_shards(batch, 4, policy);
    EXPECT_EQ(shards.size(), 4u);
    std::vector<int> seen(batch.size(), 0);
    for (const Shard& s : shards) {
      ASSERT_EQ(s.indices.size(), s.batch.size());
      for (std::size_t i = 0; i < s.indices.size(); ++i) {
        ++seen.at(s.indices[i]);
        EXPECT_EQ(s.batch.queries[i], batch.queries[s.indices[i]]);
        EXPECT_EQ(s.batch.refs[i], batch.refs[s.indices[i]]);
      }
    }
    EXPECT_TRUE(std::ranges::all_of(seen, [](int n) { return n == 1; }));
    auto cells = lane_cells(batch, 4, policy);
    EXPECT_EQ(std::accumulate(cells.begin(), cells.end(), std::uint64_t{0}),
              batch.total_cells());
  }
}

TEST(MultiDevice, SortedOrderIsByAreaDescending) {
  auto batch = saloba::testing::imbalanced_batch(403, 25, 5, 300);
  auto order = shard_order(batch, SplitPolicy::kSorted);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(batch.queries[order[i - 1]].size() * batch.refs[order[i - 1]].size(),
              batch.queries[order[i]].size() * batch.refs[order[i]].size());
  }
}

TEST(MultiDevice, SortedSplitBalancesBetterThanStatic) {
  // Heavy-tailed workload: static round-robin can stack big jobs on one
  // shard; sorted round-robin deals them out evenly.
  util::Xoshiro256 rng(404);
  seq::PairBatch batch;
  for (int i = 0; i < 64; ++i) {
    std::size_t len = rng.bernoulli(0.15) ? 2000 : 50;
    batch.add(saloba::testing::random_seq(rng, len), saloba::testing::random_seq(rng, len));
  }
  auto statik = lane_cells(batch, 4, SplitPolicy::kStatic);
  auto sorted = lane_cells(batch, 4, SplitPolicy::kSorted);
  EXPECT_LE(makespan(sorted), makespan(statik));
  EXPECT_LE(imbalance(sorted), imbalance(statik) + 1e-9);
}

TEST(MultiDevice, MoreDevicesNeverIncreaseMakespan) {
  auto batch = saloba::testing::imbalanced_batch(405, 48, 20, 400);
  std::uint64_t prev = makespan(lane_cells(batch, 1, SplitPolicy::kSorted));
  EXPECT_EQ(prev, batch.total_cells());
  for (int k : {2, 3, 4}) {
    std::uint64_t cur = makespan(lane_cells(batch, k, SplitPolicy::kSorted));
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(MultiDevice, MoreDevicesThanJobs) {
  // Empty shards are dropped: three pairs over eight lanes make three
  // one-pair shards on distinct lanes, and five lanes stay idle.
  auto batch = saloba::testing::imbalanced_batch(406, 3, 10, 50);
  auto shards = make_shards(batch, 8, SplitPolicy::kStatic);
  ASSERT_EQ(shards.size(), 3u);
  std::vector<int> lanes;
  for (const Shard& s : shards) {
    EXPECT_EQ(s.batch.size(), 1u);
    lanes.push_back(s.lane);
  }
  std::ranges::sort(lanes);
  EXPECT_EQ(std::ranges::adjacent_find(lanes), lanes.end());
  auto cells = lane_cells(batch, 8, SplitPolicy::kStatic);
  EXPECT_EQ(std::ranges::count(cells, std::uint64_t{0}), 5);
}

TEST(MultiDevice, SortedSnakeTightensPerLaneCellTotals) {
  // Under kSorted a plain round-robin deal hands lane 0 the largest pair of
  // every stripe of the descending order; the boustrophedon (snake) deal
  // must tighten the per-lane cell spread on a skewed batch. Lengths are
  // continuous (no repeated sizes) so stripes are genuinely unequal.
  auto batch = saloba::testing::imbalanced_batch(408, 64, 50, 1500);
  const int devices = 4;
  auto order = shard_order(batch, SplitPolicy::kSorted);

  // The old round-robin per-lane totals, reconstructed from the order.
  std::vector<std::uint64_t> rr(devices, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rr[i % devices] += batch.queries[order[i]].size() * batch.refs[order[i]].size();
  }
  std::vector<std::uint64_t> snake(devices, 0);
  for (const Shard& s : make_shards(batch, devices, SplitPolicy::kSorted)) {
    snake[static_cast<std::size_t>(s.lane)] += s.batch.total_cells();
  }

  auto spread = [](const std::vector<std::uint64_t>& v) {
    auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return *hi - *lo;
  };
  EXPECT_LT(spread(snake), spread(rr));
}

TEST(MultiDevice, UniformWeightsMatchUnweightedBitForBit) {
  auto batch = saloba::testing::imbalanced_batch(409, 41, 10, 400);
  for (std::size_t cap : {std::size_t{0}, std::size_t{7}}) {
    for (auto policy : {SplitPolicy::kStatic, SplitPolicy::kSorted}) {
      auto plain = make_shards(batch, 3, policy, cap);
      auto weighted = make_shards(batch, std::vector<double>{2.0, 2.0, 2.0}, policy, cap);
      ASSERT_EQ(weighted.size(), plain.size());
      for (std::size_t s = 0; s < plain.size(); ++s) {
        EXPECT_EQ(weighted[s].lane, plain[s].lane) << "cap=" << cap;
        EXPECT_EQ(weighted[s].indices, plain[s].indices) << "cap=" << cap;
      }
    }
  }
}

TEST(MultiDevice, SkewedWeightsShiftLoadTowardTheHeavyLane) {
  auto batch = saloba::testing::imbalanced_batch(410, 48, 50, 400);
  const std::vector<double> weights{1.0, 3.0};
  for (std::size_t cap : {std::size_t{0}, std::size_t{4}}) {
    std::vector<std::uint64_t> lane_cells(2, 0);
    for (const Shard& s : make_shards(batch, weights, SplitPolicy::kSorted, cap)) {
      lane_cells[static_cast<std::size_t>(s.lane)] += s.batch.total_cells();
    }
    // The 3x lane must take clearly more than half — and roughly its
    // proportional share of — the work.
    EXPECT_GT(lane_cells[1], 2 * lane_cells[0]) << "cap=" << cap;
  }
}

TEST(MultiDevice, WeightedLptLowersWeightedMakespanOnSkewedWeights) {
  // With per-lane service rates {1, 4}, the weighted finish time of the
  // weighted partition must beat the uniform partition's.
  auto batch = saloba::testing::imbalanced_batch(411, 60, 20, 600);
  const std::vector<double> weights{1.0, 4.0};
  auto weighted_makespan = [&](const std::vector<Shard>& shards) {
    std::vector<double> finish(weights.size(), 0.0);
    for (const Shard& s : shards) {
      finish[static_cast<std::size_t>(s.lane)] +=
          static_cast<double>(s.batch.total_cells()) / weights[static_cast<std::size_t>(s.lane)];
    }
    return *std::max_element(finish.begin(), finish.end());
  };
  double uniform = weighted_makespan(
      make_shards(batch, std::vector<double>{1.0, 1.0}, SplitPolicy::kSorted, 5));
  double weighted = weighted_makespan(make_shards(batch, weights, SplitPolicy::kSorted, 5));
  EXPECT_LT(weighted, uniform);
}

TEST(MultiDeviceDeath, RejectsZeroDevices) {
  auto batch = saloba::testing::imbalanced_batch(407, 4, 10, 50);
  EXPECT_DEATH(make_shards(batch, 0, SplitPolicy::kStatic), "at least one");
}

TEST(MultiDeviceDeath, RejectsEmptyOrNonPositiveWeights) {
  auto batch = saloba::testing::imbalanced_batch(414, 4, 10, 50);
  EXPECT_DEATH(make_shards(batch, std::vector<double>{}, SplitPolicy::kSorted),
               "at least one");
  EXPECT_DEATH(make_shards(batch, std::vector<double>{1.0, 0.0}, SplitPolicy::kSorted),
               "positive");
}

}  // namespace
}  // namespace saloba::gpusim
