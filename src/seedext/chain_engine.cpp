#include "seedext/chain_engine.hpp"

#include <algorithm>
#include <atomic>

#include "align/simd_engine.hpp"
#include "seedext/chain_kernel.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::seedext {

namespace detail {

void chain_forward_generic(const ChainTaskView& task, const ChainingParams& params,
                           ChainTaskCounters* counters) {
  chain_task_forward<align::simd::OpsI32Generic>(task, params, counters);
}

}  // namespace detail

namespace {

/// Scratch for one task's kernel run: padded SoA columns (sentinel anchors
/// past n) plus score/parent arrays. Reused across the tasks a thread runs.
struct TaskScratch {
  std::vector<std::int32_t> qpos, rpos, len, diag, score, parent;

  detail::ChainTaskView fill(const ChainBatch& batch, std::size_t t) {
    const std::size_t n = batch.task_size(t);
    const std::size_t padded =
        n + detail::kChainLookahead + align::simd::OpsI32Generic::kLanes;
    auto prep = [padded](std::vector<std::int32_t>& v) {
      v.assign(padded, 0);  // sentinel: len = 0, rpos = 0 -> never eligible
    };
    prep(qpos);
    prep(rpos);
    prep(len);
    prep(diag);
    prep(score);
    prep(parent);
    const auto q = batch.task_qpos(t);
    const auto r = batch.task_rpos(t);
    const auto l = batch.task_len(t);
    const auto d = batch.task_diag(t);
    std::copy(q.begin(), q.end(), qpos.begin());
    std::copy(r.begin(), r.end(), rpos.begin());
    std::copy(l.begin(), l.end(), len.begin());
    std::copy(d.begin(), d.end(), diag.begin());
    detail::ChainTaskView view;
    view.qpos = qpos.data();
    view.rpos = rpos.data();
    view.len = len.data();
    view.diag = diag.data();
    view.score = score.data();
    view.parent = parent.data();
    view.n = n;
    return view;
  }
};

bool use_avx2() {
  return align::simd::compiled_with_avx2() && align::simd::cpu_supports_avx2();
}

std::vector<Chain> run_one(const ChainBatch& batch, std::size_t t, TaskScratch& scratch,
                           bool avx2, ChainEngineStats& stats) {
  const std::size_t n = batch.task_size(t);
  stats.tasks += 1;
  stats.anchors += n;
  if (n == 0) return {};

  const std::vector<Seed> seeds = batch.task_seeds(t);
  if (!batch.task_simd_safe(t)) {
    // Outside the int32 exactness envelope: the oracle DP is the
    // implementation, so bit-identity holds by definition.
    stats.scalar_tasks += 1;
    std::vector<std::int64_t> score(n);
    std::vector<std::int32_t> parent(n);
    chain_dp(seeds, batch.params(), score, parent);
    return collect_chains(seeds, score, parent, batch.params());
  }

  detail::ChainTaskView view = scratch.fill(batch, t);
  detail::ChainTaskCounters counters;
#if defined(SALOBA_SIMD_AVX2)
  if (avx2) {
    detail::chain_forward_avx2(view, batch.params(), &counters);
  } else {
    detail::chain_forward_generic(view, batch.params(), &counters);
  }
#else
  (void)avx2;
  detail::chain_forward_generic(view, batch.params(), &counters);
#endif
  stats.pushes += counters.pushes;
  stats.settled += counters.settled;

  // Widen the kernel's int32 scores for the shared endpoint collection.
  std::vector<std::int64_t> score(n);
  for (std::size_t i = 0; i < n; ++i) score[i] = view.score[i];
  return collect_chains(seeds, score, {view.parent, n}, batch.params());
}

}  // namespace

std::vector<std::vector<Chain>> chain_tasks_run(const ChainBatch& batch,
                                                std::span<const std::size_t> tasks,
                                                ChainEngineStats* stats, int threads) {
  const util::Timer timer;
  const bool avx2 = use_avx2();

  // Each worker owns a stats shard and a scratch; results go to index-owned
  // slots, so the run is deterministic regardless of the thread count. An
  // explicit `threads` budget may exceed the default team size (num_threads
  // overrides omp_get_max_threads), so size the shards for either.
  const std::size_t max_workers =
      static_cast<std::size_t>(std::max({1, util::max_parallel_threads(), threads}));
  std::vector<ChainEngineStats> shard_stats(max_workers);
  std::vector<TaskScratch> scratch(max_workers);
  std::vector<std::vector<Chain>> out(tasks.size());
  util::parallel_for_indexed(
      tasks.size(),
      [&](std::size_t k) {
        const std::size_t w = static_cast<std::size_t>(util::current_thread_index());
        out[k] = run_one(batch, tasks[k], scratch[w], avx2, shard_stats[w]);
      },
      threads);

  if (stats) {
    ChainEngineStats local;
    local.avx2 = avx2;
    for (const auto& s : shard_stats) local.merge(s);
    local.wall_ms = timer.millis();
    stats->merge(local);
  }
  return out;
}

std::vector<std::vector<Chain>> chain_batch_run(const ChainBatch& batch,
                                                ChainEngineStats* stats, int threads) {
  std::vector<std::size_t> all(batch.tasks());
  for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
  return chain_tasks_run(batch, all, stats, threads);
}

}  // namespace saloba::seedext
