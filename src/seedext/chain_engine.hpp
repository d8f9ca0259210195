// Batched forward-only chaining engine (ROADMAP: "chaining as a schedulable
// phase"). Runs the fixed-lookahead push recurrence (chain_kernel.hpp) over
// a ChainBatch's tasks — AVX2 intrinsics when the build and the CPU allow
// (chain_engine_avx2.cpp, the same SALOBA_SIMD_AVX2 / CPUID gate as the
// extension engine), the portable OpsI32Generic kernel otherwise — and
// collects chains through the shared collect_chains, so every output is
// bit-identical to the sequential chain_seeds oracle regardless of ISA,
// thread count, or task-to-shard placement. Tasks outside the int32
// exactness envelope (ChainBatch::task_simd_safe) run the oracle DP
// directly, keeping the bit-identity guarantee unconditional.
#pragma once

#include <cstddef>
#include <vector>

#include "seedext/chain_batch.hpp"
#include "seedext/chaining.hpp"

namespace saloba::seedext {

/// Per-call engine telemetry. The counters are structural (candidate counts,
/// not accepted updates), so they are deterministic across ISAs and runs.
struct ChainEngineStats {
  std::size_t tasks = 0;         ///< tasks executed
  std::size_t anchors = 0;       ///< total anchors across those tasks
  std::size_t pushes = 0;        ///< vector push candidates evaluated
  std::size_t settled = 0;       ///< residual scalar candidates examined
  std::size_t scalar_tasks = 0;  ///< routed to the oracle DP (envelope guard)
  bool avx2 = false;             ///< intrinsic kernel was dispatched
  double wall_ms = 0.0;

  void merge(const ChainEngineStats& other) {
    tasks += other.tasks;
    anchors += other.anchors;
    pushes += other.pushes;
    settled += other.settled;
    scalar_tasks += other.scalar_tasks;
    avx2 = avx2 || other.avx2;
    wall_ms += other.wall_ms;
  }
};

/// Chains a subset of tasks (a shard): element k holds the chains of
/// tasks[k], bit-identical to chain_seeds(batch.task_seeds(tasks[k]),
/// batch.params()). `threads` caps host parallelism across the listed tasks
/// (0 = default team, 1 = caller thread).
std::vector<std::vector<Chain>> chain_tasks_run(const ChainBatch& batch,
                                                std::span<const std::size_t> tasks,
                                                ChainEngineStats* stats = nullptr,
                                                int threads = 0);

/// Chains every task of `batch`; result indexed by task id.
std::vector<std::vector<Chain>> chain_batch_run(const ChainBatch& batch,
                                                ChainEngineStats* stats = nullptr,
                                                int threads = 0);

namespace detail {
struct ChainTaskView;

/// Portable-kernel entry (chain_engine.cpp).
void chain_forward_generic(const ChainTaskView& task, const ChainingParams& params,
                           struct ChainTaskCounters* counters);
/// AVX2-kernel entry (chain_engine_avx2.cpp; only when SALOBA_SIMD_AVX2).
void chain_forward_avx2(const ChainTaskView& task, const ChainingParams& params,
                        struct ChainTaskCounters* counters);
}  // namespace detail

}  // namespace saloba::seedext
