// SoA anchor batching for the chaining phase. A ChainBatch collects the seed
// lists of many (read, strand) chaining problems into contiguous
// structure-of-arrays buffers — qpos / rpos / len / diagonal columns plus
// per-task offsets, the anchor-level analogue of seq::PairBatch — so the
// forward-only chain engine (chain_engine.hpp) streams each task's anchors
// with unit stride and the scheduler (core::BatchScheduler::chain) shards
// tasks across backend lanes like extension shards. Tasks carry a per-task
// work estimate (the scalar DP's candidate count) so sharding can
// length-bucket by cost, exactly the make_shards weighted-LPT discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "seedext/chaining.hpp"
#include "seedext/seeding.hpp"

namespace saloba::seedext {

/// Many chaining problems, one SoA anchor pool. Anchors of task t occupy
/// [first[t], first[t + 1]) of every column, already in the canonical
/// sort_seeds order — add_task sorts, so engines never re-sort.
class ChainBatch {
 public:
  explicit ChainBatch(const ChainingParams& params = {}) : params_(params) {}

  /// Appends one chaining problem (the seeds of one read×strand) and returns
  /// its task id. Seeds are sorted into canonical (qpos, rpos) order here.
  /// Empty seed lists are legal tasks (they chain to nothing).
  std::size_t add_task(std::vector<Seed> seeds);

  std::size_t tasks() const { return first_.size() - 1; }
  std::size_t anchors() const { return qpos_.size(); }
  bool empty() const { return tasks() == 0; }
  const ChainingParams& params() const { return params_; }

  std::size_t task_begin(std::size_t t) const { return first_[t]; }
  std::size_t task_size(std::size_t t) const { return first_[t + 1] - first_[t]; }

  /// Scalar-DP candidate count of task t (the qpos-window early-exit scan's
  /// work) — the sharding cost measure, and what a sequential oracle run of
  /// this task would execute.
  std::size_t task_work(std::size_t t) const { return work_[t]; }

  // SoA columns of one task (canonical order, contiguous).
  std::span<const std::int32_t> task_qpos(std::size_t t) const {
    return {qpos_.data() + first_[t], task_size(t)};
  }
  std::span<const std::int32_t> task_rpos(std::size_t t) const {
    return {rpos_.data() + first_[t], task_size(t)};
  }
  std::span<const std::int32_t> task_len(std::size_t t) const {
    return {len_.data() + first_[t], task_size(t)};
  }
  std::span<const std::int32_t> task_diag(std::size_t t) const {
    return {diag_.data() + first_[t], task_size(t)};
  }

  /// Reconstitutes task t's seeds (canonical order) — for collect_chains and
  /// the oracle fallback.
  std::vector<Seed> task_seeds(std::size_t t) const;

  /// True when every anchor and parameter of task t fits the int32 push
  /// kernel's exactness envelope (positions < 2^30, Σlen and max_gap·cost
  /// bounded, non-negative cost): the vector path is then bit-identical to
  /// the scalar oracle. Tasks outside the envelope are routed to the oracle.
  bool task_simd_safe(std::size_t t) const;

 private:
  ChainingParams params_;
  std::vector<std::int32_t> qpos_, rpos_, len_, diag_;
  std::vector<std::size_t> first_{0};  ///< tasks() + 1 offsets
  std::vector<std::size_t> work_;
  std::vector<std::uint8_t> simd_safe_;
};

/// One chaining shard: a set of batch task ids bound to a backend lane.
/// Tasks are referenced, not copied — the SoA pool is shared read-only.
struct ChainShard {
  std::vector<std::size_t> tasks;
  std::size_t work = 0;  ///< Σ task_work — the LPT load measure
  int lane = 0;
};

/// Shards a ChainBatch's tasks into one shard per lane of
/// `lane_weights.size()` by weighted LPT on task_work
/// (gpusim::weighted_lpt_lanes, the extension shards' placement): tasks are
/// taken in descending work order and each goes to the lane minimising
/// weighted finish time (load + work) / weight. Empty shards are dropped;
/// every task lands in exactly one shard.
std::vector<ChainShard> make_chain_shards(const ChainBatch& batch,
                                          const std::vector<double>& lane_weights);

}  // namespace saloba::seedext
