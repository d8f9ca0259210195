#include "seedext/chain_batch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "gpusim/multi_device.hpp"

namespace saloba::seedext {

namespace {

// The int32 push kernel's exactness envelope (see ChainBatch::task_simd_safe):
// positions and diagonals stay well inside int32, Σlen bounds every chain
// score, and max_gap·gap_cost_num bounds every penalty, so no eligible-lane
// intermediate can wrap.
constexpr std::int64_t kMaxPos = std::int64_t{1} << 30;
constexpr std::int64_t kMaxLen = std::int64_t{1} << 20;
constexpr std::int64_t kMaxScoreSum = std::int64_t{1} << 28;
constexpr std::int64_t kMaxPenalty = std::int64_t{1} << 28;

}  // namespace

std::size_t ChainBatch::add_task(std::vector<Seed> seeds) {
  sort_seeds(seeds);
  const std::size_t t = tasks();
  const std::size_t n = seeds.size();

  std::int64_t len_sum = 0;
  std::int64_t max_len = 0;
  bool safe = params_.gap_cost_num >= 0 && params_.max_gap >= 0 &&
              params_.max_diag_drift >= 0 &&
              static_cast<std::int64_t>(params_.gap_cost_num) *
                      std::max<std::int64_t>(params_.max_gap, 1) <
                  kMaxPenalty &&
              n < static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  for (const Seed& seed : seeds) {
    qpos_.push_back(static_cast<std::int32_t>(seed.qpos));
    rpos_.push_back(static_cast<std::int32_t>(seed.rpos));
    len_.push_back(static_cast<std::int32_t>(seed.len));
    diag_.push_back(static_cast<std::int32_t>(static_cast<std::int64_t>(seed.rpos) -
                                              static_cast<std::int64_t>(seed.qpos)));
    len_sum += seed.len;
    max_len = std::max<std::int64_t>(max_len, seed.len);
    safe &= seed.qpos < kMaxPos && seed.rpos < kMaxPos && seed.len >= 1 &&
            seed.len < kMaxLen;
  }
  safe &= len_sum < kMaxScoreSum;
  first_.push_back(qpos_.size());
  simd_safe_.push_back(safe ? 1 : 0);

  // Scalar-DP candidate count under the qpos-window early exit: for each
  // anchor i, predecessors scanned are those j < i with
  // qpos[j] >= qpos[i] - max_gap - max_len. Two-pointer, O(n) amortized.
  std::size_t work = 0;
  {
    const std::span<const std::int32_t> q = task_qpos(t);
    std::size_t lo = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t qmin =
          static_cast<std::int64_t>(q[i]) - params_.max_gap - max_len;
      while (lo < i && static_cast<std::int64_t>(q[lo]) < qmin) ++lo;
      work += i - lo;
    }
  }
  work_.push_back(work);
  return t;
}

std::vector<Seed> ChainBatch::task_seeds(std::size_t t) const {
  const std::size_t n = task_size(t);
  std::vector<Seed> seeds(n);
  const auto q = task_qpos(t);
  const auto r = task_rpos(t);
  const auto l = task_len(t);
  for (std::size_t i = 0; i < n; ++i) {
    seeds[i] = Seed{static_cast<std::uint32_t>(q[i]), static_cast<std::uint32_t>(r[i]),
                    static_cast<std::uint32_t>(l[i])};
  }
  return seeds;
}

bool ChainBatch::task_simd_safe(std::size_t t) const { return simd_safe_[t] != 0; }

std::vector<ChainShard> make_chain_shards(const ChainBatch& batch,
                                          const std::vector<double>& lane_weights) {
  // Descending work order (index tie-break for determinism), so LPT sees
  // the big tasks first.
  std::vector<std::size_t> order(batch.tasks());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (batch.task_work(a) != batch.task_work(b)) {
      return batch.task_work(a) > batch.task_work(b);
    }
    return a < b;
  });
  std::vector<double> loads;
  loads.reserve(order.size());
  for (std::size_t idx : order) {
    loads.push_back(static_cast<double>(std::max<std::size_t>(batch.task_work(idx), 1)));
  }
  const std::vector<int> lanes = gpusim::weighted_lpt_lanes(loads, lane_weights);

  std::vector<ChainShard> shards(lane_weights.size());
  for (std::size_t l = 0; l < shards.size(); ++l) shards[l].lane = static_cast<int>(l);
  for (std::size_t n = 0; n < order.size(); ++n) {
    ChainShard& shard = shards[static_cast<std::size_t>(lanes[n])];
    shard.tasks.push_back(order[n]);
    shard.work += batch.task_work(order[n]);
  }
  std::erase_if(shards, [](const ChainShard& s) { return s.tasks.empty(); });
  return shards;
}

}  // namespace saloba::seedext
