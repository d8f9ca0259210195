#include "core/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <future>
#include <utility>

#include "util/check.hpp"

namespace saloba::core {

void finalize_balance(ScheduleReport& report) {
  double sum = 0.0;
  report.busy_lanes = 0;
  for (double ms : report.lane_ms) {
    sum += ms;
    report.busy_lanes += ms > 0.0;
  }
  report.imbalance = !report.lane_ms.empty() && sum > 0.0
                         ? report.makespan_ms / (sum / static_cast<double>(report.lane_ms.size()))
                         : 0.0;
}

namespace {

double gcups_at(std::size_t cells, double time_ms) {
  return time_ms > 0 ? static_cast<double>(cells) / (time_ms * 1e6) : 0.0;
}

/// Runs `run_shard(s)` for every shard index: one pool future per lane,
/// each draining that lane's shards in shard order — lanes run concurrently
/// and no pool thread ever blocks waiting for a lane another thread holds.
/// Waits for every future, even when one failed, then rethrows the first
/// failure, so callers never touch outputs a shard is still writing.
template <typename Shard, typename RunShard>
void run_per_lane(util::ThreadPool& pool, int lanes, const std::vector<Shard>& shards,
                  RunShard&& run_shard) {
  std::vector<std::vector<std::size_t>> lane_shards(static_cast<std::size_t>(lanes));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    lane_shards[static_cast<std::size_t>(shards[s].lane)].push_back(s);
  }
  std::vector<std::future<void>> futures;
  for (const std::vector<std::size_t>& mine : lane_shards) {
    if (mine.empty()) continue;
    futures.push_back(pool.submit([&run_shard, &mine] {
      for (std::size_t s : mine) run_shard(s);
    }));
  }
  std::exception_ptr failure;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

BatchScheduler::BatchScheduler(AlignBackend* backend, SchedulerOptions options)
    : backend_(backend), options_(options) {
  SALOBA_CHECK_MSG(backend_ != nullptr, "scheduler needs a backend");
  SALOBA_CHECK_MSG(backend_->lanes() >= 1, "backend exposes no lanes");
}

util::ThreadPool& BatchScheduler::pool() {
  if (!pool_) {
    std::size_t threads = options_.threads > 0
                              ? options_.threads
                              : static_cast<std::size_t>(backend_->lanes());
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  return *pool_;
}

AlignOutput BatchScheduler::run_single(const seq::PairBatch& batch) {
  // Fast path: the whole batch in input order on lane 0 — bit-identical to
  // the pre-scheduler Aligner::align, with no batch copy.
  BackendOutput bo = backend_->run(batch, 0);
  AlignOutput out;
  out.results = std::move(bo.results);
  out.cells = bo.cells != 0 ? bo.cells : batch.total_banded_cells();
  out.time_ms = bo.time_ms;
  out.gcups = gcups_at(out.cells, out.time_ms);
  out.kernel_stats = std::move(bo.kernel_stats);
  out.time_breakdown = std::move(bo.time_breakdown);
  out.schedule.shards = 1;
  out.schedule.lanes = backend_->lanes();
  out.schedule.lane_ms.assign(static_cast<std::size_t>(backend_->lanes()), 0.0);
  out.schedule.lane_ms[0] = bo.time_ms;
  out.schedule.lane_weights = lane_weights(*backend_);
  out.schedule.makespan_ms = bo.time_ms;
  finalize_balance(out.schedule);
  if (options_.traceback) {
    TracebackOutput tb =
        backend_->run_traceback(batch, out.results, options_.traceback_settings, 0);
    out.traced = std::move(tb.traced);
    out.traceback_ms = tb.time_ms;
    out.traceback_cells = tb.cells;
    merge_modeled(out, tb);
  }
  return out;
}

AlignOutput BatchScheduler::run(const seq::PairBatch& batch) {
  // A banded option set is materialized into a real per-pair band channel
  // up front, so sharding, backends and kernels all see one uniform
  // representation; a batch that already carries bands wins over the policy
  // and is forwarded untouched (no copy on that path, nor when unbanded).
  // The materialization copies the batch once — callers for whom that
  // transient copy matters at scale should attach per-pair bands themselves
  // (seedext jobs do) or stream: StreamAligner materializes each chunk in
  // place inside its residency budget.
  if (options_.band.banded() && !batch.has_band_info() && batch.size() > 0) {
    seq::PairBatch banded = batch;
    materialize_bands(banded, options_.band);
    return run_resolved(banded);
  }
  return run_resolved(batch);
}

AlignOutput BatchScheduler::run_resolved(const seq::PairBatch& batch) {
  if (batch.size() == 0) {
    AlignOutput out;
    out.schedule.lanes = backend_->lanes();
    out.schedule.shards = 0;
    out.schedule.lane_ms.assign(static_cast<std::size_t>(backend_->lanes()), 0.0);
    out.schedule.lane_weights = lane_weights(*backend_);
    return out;
  }

  const int lanes = backend_->lanes();
  if (lanes == 1 && options_.max_shard_pairs == 0) return run_single(batch);

  // Cost-aware dispatch: heterogeneous backends expose non-uniform lane
  // weights and get the weighted-LPT packing; uniform weights fall through
  // to the classic unweighted path bit-for-bit. When the long-read policy
  // routes pairs, those are priced by the wavefront's cell estimate instead
  // of their nominal n·m area, so one 100kb pair no longer eats a lane's
  // whole budget on paper while costing a thin window in practice.
  std::vector<gpusim::Shard> shards;
  bool any_routed = false;
  if (options_.longread.enabled()) {
    for (std::size_t i = 0; i < batch.size() && !any_routed; ++i) {
      any_routed = options_.longread.routes(batch.refs[i].size(), batch.queries[i].size());
    }
  }
  if (any_routed) {
    std::vector<std::uint64_t> loads(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t r = batch.refs[i].size();
      const std::size_t q = batch.queries[i].size();
      loads[i] = options_.longread.routes(r, q) ? options_.longread.cells_estimate(r, q)
                                                : batch.cells_of(i);
    }
    shards = gpusim::make_shards(batch, lane_weights(*backend_), options_.policy,
                                 options_.max_shard_pairs, loads);
  } else {
    shards = gpusim::make_shards(batch, lane_weights(*backend_), options_.policy,
                                 options_.max_shard_pairs);
  }
  if (shards.size() == 1 && shards[0].batch.size() == batch.size() &&
      options_.policy == gpusim::SplitPolicy::kStatic) {
    return run_single(batch);
  }

  std::vector<BackendOutput> outputs(shards.size());
  run_per_lane(pool(), lanes, shards, [&](std::size_t s) {
    outputs[s] = backend_->run(shards[s].batch, shards[s].lane);
  });

  AlignOutput out = merge(batch, shards, outputs);
  if (options_.traceback) traceback_phase(batch, shards, outputs, out);
  return out;
}

void BatchScheduler::traceback_phase(const seq::PairBatch& batch,
                                     const std::vector<gpusim::Shard>& shards,
                                     const std::vector<BackendOutput>& outputs,
                                     AlignOutput& out) {
  // Second wave on the same lane assignment: a shard's traceback needs only
  // that shard's score results, so lanes drain their shards independently
  // again — no barrier beyond the score pass already settled.
  std::vector<TracebackOutput> traces(shards.size());
  run_per_lane(pool(), backend_->lanes(), shards, [&](std::size_t s) {
    traces[s] = backend_->run_traceback(shards[s].batch, outputs[s].results,
                                        options_.traceback_settings, shards[s].lane);
  });

  // Input-order merge, shard-id order for deterministic stats.
  out.traced.resize(batch.size());
  std::vector<double> lane_tb_ms(static_cast<std::size_t>(backend_->lanes()), 0.0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const gpusim::Shard& shard = shards[s];
    TracebackOutput& tb = traces[s];
    SALOBA_CHECK_MSG(tb.traced.size() == shard.indices.size(),
                     "traceback returned " << tb.traced.size() << " traces for a "
                                           << shard.indices.size() << "-pair shard");
    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      out.traced[shard.indices[i]] = std::move(tb.traced[i]);
    }
    out.traceback_cells += tb.cells;
    lane_tb_ms[static_cast<std::size_t>(shard.lane)] += tb.time_ms;
    merge_modeled(out, tb);
  }
  for (double ms : lane_tb_ms) out.traceback_ms = std::max(out.traceback_ms, ms);
}

ChainPhaseOutput BatchScheduler::chain(const seedext::ChainBatch& batch) {
  ChainPhaseOutput out;
  out.chains.resize(batch.tasks());
  out.schedule.lanes = backend_->lanes();
  out.schedule.lane_ms.assign(static_cast<std::size_t>(backend_->lanes()), 0.0);
  out.schedule.lane_weights = lane_weights(*backend_);
  if (batch.empty()) {
    out.schedule.shards = 0;
    return out;
  }

  // Fast path: one lane, no cap — a single synchronous run on lane 0.
  const int lanes = backend_->lanes();
  if (lanes == 1 && options_.max_shard_chain_tasks == 0) {
    std::vector<std::size_t> all(batch.tasks());
    for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
    ChainingOutput co = backend_->run_chaining(batch, all, 0);
    out.chains = std::move(co.chains);
    out.time_ms = co.time_ms;
    out.anchors = co.anchors;
    out.updates = co.updates;
    out.engine_stats = co.engine_stats;
    out.kernel_stats = std::move(co.kernel_stats);
    out.time_breakdown = std::move(co.time_breakdown);
    out.schedule.shards = 1;
    out.schedule.lane_ms[0] = co.time_ms;
    out.schedule.makespan_ms = co.time_ms;
    finalize_balance(out.schedule);
    return out;
  }

  // Weighted-LPT task sharding, then the same per-lane dispatch as the
  // extension shards.
  auto shards = seedext::make_chain_shards(batch, lane_weights(*backend_),
                                           options_.max_shard_chain_tasks);
  std::vector<ChainingOutput> outputs(shards.size());
  run_per_lane(pool(), lanes, shards, [&](std::size_t s) {
    outputs[s] = backend_->run_chaining(batch, shards[s].tasks, shards[s].lane);
  });

  // Task-id merge in shard-id order: chains land in their batch slots;
  // stats never depend on thread timing.
  out.schedule.shards = shards.size();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    ChainingOutput& co = outputs[s];
    for (std::size_t t : shards[s].tasks) {
      out.chains[t] = std::move(co.chains[t]);
    }
    out.anchors += co.anchors;
    out.updates += co.updates;
    out.engine_stats.merge(co.engine_stats);
    out.schedule.lane_ms[static_cast<std::size_t>(shards[s].lane)] += co.time_ms;
    merge_modeled(out, co);
  }
  for (double ms : out.schedule.lane_ms) {
    out.schedule.makespan_ms = std::max(out.schedule.makespan_ms, ms);
  }
  finalize_balance(out.schedule);
  out.time_ms = out.schedule.makespan_ms;
  return out;
}

AlignOutput BatchScheduler::merge(const seq::PairBatch& batch,
                                  const std::vector<gpusim::Shard>& shards,
                                  std::vector<BackendOutput>& outputs) {
  AlignOutput out;
  out.results.resize(batch.size());
  out.schedule.shards = shards.size();
  out.schedule.lanes = backend_->lanes();
  out.schedule.lane_ms.assign(static_cast<std::size_t>(backend_->lanes()), 0.0);
  out.schedule.lane_weights = lane_weights(*backend_);

  // Deterministic aggregation: shards are merged in shard-id order, not
  // completion order, so stats and times never depend on thread timing.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const gpusim::Shard& shard = shards[s];
    BackendOutput& bo = outputs[s];
    SALOBA_CHECK_MSG(bo.results.size() == shard.indices.size(),
                     "backend returned " << bo.results.size() << " results for a "
                                         << shard.indices.size() << "-pair shard");
    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      out.results[shard.indices[i]] = bo.results[i];
    }
    out.cells += bo.cells != 0 ? bo.cells : shard.batch.total_banded_cells();
    out.schedule.lane_ms[static_cast<std::size_t>(shard.lane)] += bo.time_ms;
    merge_modeled(out, bo);
  }

  for (double ms : out.schedule.lane_ms) {
    out.schedule.makespan_ms = std::max(out.schedule.makespan_ms, ms);
  }
  finalize_balance(out.schedule);

  // Devices run concurrently, so the batch's wall time is the makespan —
  // and gcups is computed once, from the merged output, for both backends.
  // The breakdown stays a per-component sum over every shard (total device
  // time), so its parts remain consistent with its own total_ms; the two
  // coincide on a single lane.
  out.time_ms = out.schedule.makespan_ms;
  out.gcups = out.time_ms > 0 ? static_cast<double>(out.cells) / (out.time_ms * 1e6) : 0.0;
  return out;
}

}  // namespace saloba::core
