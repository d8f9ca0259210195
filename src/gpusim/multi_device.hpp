// Multi-GPU sharding (paper Sec. VII-C): split a batch across several
// simulated devices; core::BatchScheduler runs the shards and reports the
// makespan. Policies implement the paper's discussion — naive static
// splitting vs. approximate sorting to narrow the inter-device imbalance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "seq/sequence.hpp"

namespace saloba::gpusim {

enum class SplitPolicy {
  kStatic,  ///< round-robin in input order (the paper's "splitting into equal numbers")
  kSorted,  ///< round-robin after sorting by DP area, descending ("approximate sorting")
};

/// The shard index sequence a policy produces (exposed for tests).
std::vector<std::size_t> shard_order(const seq::PairBatch& batch, SplitPolicy policy);

/// One sub-batch of a sharded dispatch, with enough bookkeeping to merge
/// results back into input order.
struct Shard {
  seq::PairBatch batch;
  std::vector<std::size_t> indices;  ///< original position of each pair
  int lane = 0;                      ///< device the shard is assigned to
};

/// Shards `batch` for `devices` lanes under `policy`.
///
/// * `max_shard_pairs == 0`: one shard per lane, dealt over the policy order
///   — the partition an uncapped core::BatchScheduler (core::Aligner's) runs
///   on several uniform lanes. Under kSorted the deal is
///   boustrophedon (snake: lane 0..N-1, then N-1..0, ...) so no lane
///   systematically receives the largest pair of every stripe of the
///   descending order; kStatic keeps plain round-robin (input order carries
///   no size trend to skew).
/// * `max_shard_pairs > 0`: the policy order is cut into contiguous runs of
///   at most `max_shard_pairs` pairs (under kSorted each run holds
///   like-sized pairs — length-bucketed packing that minimises intra-launch
///   imbalance, the paper's balance goal at host granularity), and runs are
///   assigned to lanes by greedy LPT on DP area.
///
/// Every pair lands in exactly one shard; empty shards are dropped.
std::vector<Shard> make_shards(const seq::PairBatch& batch, int devices, SplitPolicy policy,
                               std::size_t max_shard_pairs = 0);

/// Cost-aware (weighted-LPT) sharding for heterogeneous lanes. One lane per
/// entry of `lane_weights`; weight l is lane l's relative throughput (only
/// ratios matter — see core::AlignBackend::lane_weight). Work goes to the
/// lane minimising the weighted finish time `(lane_load + cells) / weight`:
/// per pair when `max_shard_pairs == 0` (one shard per lane), per capped run
/// when `max_shard_pairs > 0` (a lane may own several shards). Uniform
/// weights reproduce the unweighted overload bit-for-bit.
std::vector<Shard> make_shards(const seq::PairBatch& batch,
                               const std::vector<double>& lane_weights, SplitPolicy policy,
                               std::size_t max_shard_pairs = 0);

/// Greedy weighted-LPT placement of arbitrary work items onto lanes: items
/// are taken in the given order, and item i goes to the lane minimising the
/// weighted finish time (lane_load + loads[i]) / lane_weights[lane] — the
/// same rule the cost-aware make_shards overloads apply to pair batches
/// (ties break to the lowest lane). Returns the lane of each item,
/// index-aligned with `loads`. Every lane placement runs this one loop:
/// the weighted make_shards overloads, the unweighted capped packing (at
/// uniform weights) and seedext::make_chain_shards.
std::vector<int> weighted_lpt_lanes(std::span<const double> loads,
                                    std::span<const double> lane_weights);

/// Cost-aware sharding with *explicit per-pair loads*: pair i costs
/// `loads[i]` (size must equal batch.size()) instead of batch.cells_of(i).
/// The scheduler uses this when a routing policy prices some pairs by a
/// different engine's cost model — e.g. long-read pairs routed to the X-drop
/// wavefront, whose work is its score-bounded window, not the nominal n·m
/// table. kSorted orders by the loads; packing is weighted LPT throughout
/// (with uniform weights that is plain LPT — the snake deal is skipped, as
/// it would re-derive costs from cells_of and unlearn the loads).
std::vector<Shard> make_shards(const seq::PairBatch& batch,
                               const std::vector<double>& lane_weights, SplitPolicy policy,
                               std::size_t max_shard_pairs,
                               std::span<const std::uint64_t> loads);

}  // namespace saloba::gpusim
