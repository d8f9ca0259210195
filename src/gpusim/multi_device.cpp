#include "gpusim/multi_device.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/check.hpp"

namespace saloba::gpusim {

namespace {

/// Appends pair `i` of `batch` to shard `s` at its band — a banded pair must
/// stay banded inside its shard or the backend would silently compute the
/// full table.
void append_pair(Shard& s, const seq::PairBatch& batch, std::size_t i) {
  s.batch.add(batch.queries[i], batch.refs[i], batch.band_of(i));
}

/// Shared weighted-LPT body of the two cost-aware make_shards overloads and
/// of the unweighted capped packing (at uniform weights): `order` is the
/// packing order (descending cost under kSorted), `load_of`
/// prices pair i. One shard per lane when uncapped; capped runs of the
/// order otherwise, each assigned whole to the lane with the earliest
/// weighted finish time.
std::vector<Shard> make_shards_weighted(const seq::PairBatch& batch,
                                        const std::vector<double>& lane_weights,
                                        const std::vector<std::size_t>& order,
                                        std::size_t max_shard_pairs,
                                        const std::function<double(std::size_t)>& load_of) {
  const int devices = static_cast<int>(lane_weights.size());

  std::vector<Shard> shards;
  if (max_shard_pairs == 0) {
    // One shard per lane; deal pairs greedily in policy order (descending
    // cost under kSorted — the classic LPT schedule, weight-scaled).
    std::vector<double> ordered_loads;
    ordered_loads.reserve(order.size());
    for (std::size_t i : order) ordered_loads.push_back(load_of(i));
    std::vector<int> lanes = weighted_lpt_lanes(ordered_loads, lane_weights);
    shards.resize(lane_weights.size());
    for (int d = 0; d < devices; ++d) shards[static_cast<std::size_t>(d)].lane = d;
    for (std::size_t n = 0; n < order.size(); ++n) {
      auto lane = static_cast<std::size_t>(lanes[n]);
      append_pair(shards[lane], batch, order[n]);
      shards[lane].indices.push_back(order[n]);
    }
  } else {
    // Capped runs of the policy order, each assigned whole to the lane with
    // the earliest weighted finish time; a lane may own several runs.
    std::vector<double> run_loads;
    for (std::size_t begin = 0; begin < order.size(); begin += max_shard_pairs) {
      std::size_t end = std::min(begin + max_shard_pairs, order.size());
      Shard s;
      double run_load = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        append_pair(s, batch, order[i]);
        s.indices.push_back(order[i]);
        run_load += load_of(order[i]);
      }
      run_loads.push_back(run_load);
      shards.push_back(std::move(s));
    }
    std::vector<int> lanes = weighted_lpt_lanes(run_loads, lane_weights);
    for (std::size_t n = 0; n < shards.size(); ++n) shards[n].lane = lanes[n];
  }

  std::erase_if(shards, [](const Shard& s) { return s.batch.size() == 0; });
  return shards;
}

}  // namespace

std::vector<int> weighted_lpt_lanes(std::span<const double> loads,
                                    std::span<const double> lane_weights) {
  SALOBA_CHECK_MSG(!lane_weights.empty(), "need at least one lane weight");
  for (double w : lane_weights) {
    SALOBA_CHECK_MSG(w > 0.0, "lane weights must be positive, got " << w);
  }
  std::vector<double> lane_load(lane_weights.size(), 0.0);
  std::vector<int> out;
  out.reserve(loads.size());
  for (double load : loads) {
    // Put the next unit of work on the lane that would finish it earliest,
    // i.e. minimise (load + work) / weight; ties go to the lowest lane.
    std::size_t best = 0;
    double best_finish = (lane_load[0] + load) / lane_weights[0];
    for (std::size_t l = 1; l < lane_load.size(); ++l) {
      double finish = (lane_load[l] + load) / lane_weights[l];
      if (finish < best_finish) {
        best_finish = finish;
        best = l;
      }
    }
    lane_load[best] += load;
    out.push_back(static_cast<int>(best));
  }
  return out;
}

std::vector<std::size_t> shard_order(const seq::PairBatch& batch, SplitPolicy policy) {
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), 0);
  if (policy == SplitPolicy::kSorted) {
    // Sort by the DP cost a lane will actually pay: banded pairs cost their
    // in-band O(n·band) cells, not the full n·m area (identical to the
    // classic area sort when no pair is banded).
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return batch.cells_of(a) > batch.cells_of(b);
    });
  }
  return order;
}

std::vector<Shard> make_shards(const seq::PairBatch& batch, int devices, SplitPolicy policy,
                               std::size_t max_shard_pairs) {
  SALOBA_CHECK_MSG(devices >= 1, "need at least one device");
  auto order = shard_order(batch, policy);
  if (max_shard_pairs > 0) {
    // Length-bucketed packing: contiguous runs of the policy order (largest
    // area first under kSorted) onto lanes by LPT — weighted LPT at uniform
    // weights.
    return make_shards_weighted(
        batch, std::vector<double>(static_cast<std::size_t>(devices), 1.0), order,
        max_shard_pairs, [&](std::size_t i) { return static_cast<double>(batch.cells_of(i)); });
  }

  // One shard per lane, dealt over the policy order. Under kSorted the
  // order is descending by area, so a plain round-robin deal hands lane 0
  // the largest pair of every stripe; snake (boustrophedon) order
  // alternates the deal direction per stripe and cancels that systematic
  // skew.
  const auto lanes = static_cast<std::size_t>(devices);
  std::vector<Shard> shards(lanes);
  for (int d = 0; d < devices; ++d) shards[static_cast<std::size_t>(d)].lane = d;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t pos = i % lanes;
    if (policy == SplitPolicy::kSorted && (i / lanes) % 2 == 1) pos = lanes - 1 - pos;
    Shard& s = shards[pos];
    append_pair(s, batch, order[i]);
    s.indices.push_back(order[i]);
  }
  std::erase_if(shards, [](const Shard& s) { return s.batch.size() == 0; });
  return shards;
}

std::vector<Shard> make_shards(const seq::PairBatch& batch,
                               const std::vector<double>& lane_weights, SplitPolicy policy,
                               std::size_t max_shard_pairs) {
  SALOBA_CHECK_MSG(!lane_weights.empty(), "need at least one lane weight");
  for (double w : lane_weights) {
    SALOBA_CHECK_MSG(w > 0.0, "lane weights must be positive, got " << w);
  }
  const int devices = static_cast<int>(lane_weights.size());
  const bool uniform = std::all_of(lane_weights.begin(), lane_weights.end(),
                                   [&](double w) { return w == lane_weights.front(); });
  if (uniform) return make_shards(batch, devices, policy, max_shard_pairs);

  auto order = shard_order(batch, policy);
  return make_shards_weighted(
      batch, lane_weights, order, max_shard_pairs,
      [&](std::size_t i) { return static_cast<double>(batch.cells_of(i)); });
}

std::vector<Shard> make_shards(const seq::PairBatch& batch,
                               const std::vector<double>& lane_weights, SplitPolicy policy,
                               std::size_t max_shard_pairs,
                               std::span<const std::uint64_t> loads) {
  SALOBA_CHECK_MSG(!lane_weights.empty(), "need at least one lane weight");
  for (double w : lane_weights) {
    SALOBA_CHECK_MSG(w > 0.0, "lane weights must be positive, got " << w);
  }
  SALOBA_CHECK_MSG(loads.size() == batch.size(),
                   "got " << loads.size() << " pair loads for a " << batch.size()
                          << "-pair batch");
  // No uniform-weight shortcut: the unweighted deal would re-derive costs
  // from cells_of and unlearn the explicit loads. Weighted LPT with uniform
  // weights is plain LPT, which is exactly what the loads call for.
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), 0);
  if (policy == SplitPolicy::kSorted) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return loads[a] > loads[b]; });
  }
  return make_shards_weighted(
      batch, lane_weights, order, max_shard_pairs,
      [&](std::size_t i) { return static_cast<double>(loads[i]); });
}

}  // namespace saloba::gpusim
