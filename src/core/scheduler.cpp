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

void place_span(AlignOutput& out, std::size_t first,
                std::span<const align::AlignmentResult> results,
                std::span<align::TracedAlignment> traced) {
  const auto at = static_cast<std::ptrdiff_t>(first);
  std::copy(results.begin(), results.end(), out.results.begin() + at);
  if (traced.empty()) return;
  out.traced.resize(out.results.size());
  std::move(traced.begin(), traced.end(), out.traced.begin() + at);
}

namespace {

double gcups_at(std::size_t cells, double time_ms) {
  return time_ms > 0 ? static_cast<double>(cells) / (time_ms * 1e6) : 0.0;
}

/// Runs `run_shard(s)` for every shard index, each lane's shards in shard
/// order. When at most one lane is busy its shards run on the calling
/// thread; otherwise every busy lane drains its shards on one std::async
/// task, so lanes run concurrently. Waits for every lane, even when one
/// failed, then rethrows the first failure in lane order, so callers never
/// touch outputs a shard is still writing.
template <typename Shard, typename RunShard>
void run_per_lane(int lanes, const std::vector<Shard>& shards, RunShard&& run_shard) {
  std::vector<std::vector<std::size_t>> lane_shards(static_cast<std::size_t>(lanes));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    lane_shards[static_cast<std::size_t>(shards[s].lane)].push_back(s);
  }
  std::erase_if(lane_shards, [](const std::vector<std::size_t>& mine) { return mine.empty(); });
  const auto drain = [&run_shard](const std::vector<std::size_t>& mine) {
    for (std::size_t s : mine) run_shard(s);
  };
  if (lane_shards.size() <= 1) {
    for (const std::vector<std::size_t>& mine : lane_shards) drain(mine);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(lane_shards.size());
  for (const std::vector<std::size_t>& mine : lane_shards) {
    futures.push_back(std::async(std::launch::async, [&drain, &mine] { drain(mine); }));
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

/// The score wave's shards: length-bucketed sub-batches packed onto the
/// backend's lanes.
std::vector<gpusim::Shard> score_shards(const seq::PairBatch& batch, const AlignBackend& backend,
                                        const SchedulerOptions& options) {
  // Cost-aware dispatch: heterogeneous backends expose non-uniform lane
  // weights and get the weighted-LPT packing; uniform weights fall through
  // to the classic unweighted path bit-for-bit. When the long-read policy
  // routes pairs, those are priced by the wavefront's cell estimate instead
  // of their nominal n·m area, so one 100kb pair no longer eats a lane's
  // whole budget on paper while costing a thin window in practice.
  std::vector<gpusim::Shard> shards;
  bool any_routed = false;
  if (options.longread.enabled()) {
    for (std::size_t i = 0; i < batch.size() && !any_routed; ++i) {
      any_routed = options.longread.routes(batch.refs[i].size(), batch.queries[i].size());
    }
  }
  if (any_routed) {
    std::vector<std::uint64_t> loads(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t r = batch.refs[i].size();
      const std::size_t q = batch.queries[i].size();
      loads[i] = options.longread.routes(r, q) ? options.longread.cells_estimate(r, q)
                                               : batch.cells_of(i);
    }
    shards = gpusim::make_shards(batch, lane_weights(backend), options.policy,
                                 options.max_shard_pairs, loads);
  } else {
    shards = gpusim::make_shards(batch, lane_weights(backend), options.policy,
                                 options.max_shard_pairs);
  }
  return shards;
}

}  // namespace

BatchScheduler::BatchScheduler(AlignBackend* backend, SchedulerOptions options)
    : backend_(backend), options_(options) {
  SALOBA_CHECK_MSG(backend_ != nullptr, "scheduler needs a backend");
  SALOBA_CHECK_MSG(backend_->lanes() >= 1, "backend exposes no lanes");
}

template <typename Item, typename RunShard>
ScheduledPhase<Item> BatchScheduler::run_phase(std::size_t inputs,
                                               const std::vector<PhaseShard>& shards,
                                               RunShard&& run_shard) {
  std::vector<PhaseOutput<Item>> outputs(shards.size());
  run_per_lane(backend_->lanes(), shards, [&](std::size_t s) { outputs[s] = run_shard(s); });
  return merge_phase(inputs, shards, std::move(outputs));
}

template <typename Item>
ScheduledPhase<Item> BatchScheduler::merge_phase(std::size_t inputs,
                                                 const std::vector<PhaseShard>& shards,
                                                 std::vector<PhaseOutput<Item>> outputs) const {
  ScheduledPhase<Item> merged;
  const bool in_place = shards.size() == 1 && shards[0].positions.empty();
  if (!in_place) merged.items.resize(inputs);
  ScheduleReport& report = merged.schedule;
  report.shards = shards.size();
  report.lanes = backend_->lanes();
  report.lane_ms.assign(static_cast<std::size_t>(backend_->lanes()), 0.0);
  report.lane_weights = lane_weights(*backend_);
  // Shard-id order, not completion order, so stats and times never depend
  // on thread timing.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    PhaseOutput<Item>& out = outputs[s];
    const std::span<const std::size_t> positions = shards[s].positions;
    const std::size_t expected = in_place ? inputs : positions.size();
    SALOBA_CHECK_MSG(out.items.size() == expected,
                     "shard " << s << " returned " << out.items.size() << " items for "
                              << expected << " inputs");
    if (in_place) {
      merged.items = std::move(out.items);
    } else {
      for (std::size_t i = 0; i < positions.size(); ++i) {
        merged.items[positions[i]] = std::move(out.items[i]);
      }
    }
    merged.work += out.work;
    report.lane_ms[static_cast<std::size_t>(shards[s].lane)] += out.time_ms;
    merge_modeled(merged, out);
  }
  for (double ms : report.lane_ms) report.makespan_ms = std::max(report.makespan_ms, ms);
  finalize_balance(report);
  // Lanes run concurrently, so the phase's time is the makespan. A
  // simulated breakdown stays a per-component sum over every shard (total
  // device time); the two coincide on a single lane.
  merged.time_ms = report.makespan_ms;
  return merged;
}

AlignOutput BatchScheduler::run(const seq::PairBatch& batch) {
  // The batch runs as one in-place shard (no copy, lane 0) unless there
  // are several lanes or a shard cap.
  std::vector<gpusim::Shard> shards;
  if (batch.size() > 0 && (backend_->lanes() > 1 || options_.max_shard_pairs > 0)) {
    shards = score_shards(batch, *backend_, options_);
    // kStatic may hand the whole batch back as one shard: run it in place.
    if (shards.size() == 1 && shards[0].batch.size() == batch.size() &&
        options_.policy == gpusim::SplitPolicy::kStatic) {
      shards.clear();
    }
  }
  std::vector<PhaseShard> phase_shards;
  if (shards.empty() && batch.size() > 0) phase_shards.emplace_back();
  for (const gpusim::Shard& shard : shards) phase_shards.push_back({shard.lane, shard.indices});
  const auto shard_batch = [&](std::size_t s) -> const seq::PairBatch& {
    return shards.empty() ? batch : shards[s].batch;
  };
  // A backend that counts no cells is charged its shard's nominal ones.
  const auto counted = [&](std::size_t s, PhaseOutput<align::AlignmentResult> out) {
    if (out.work == 0) out.work = shard_batch(s).total_banded_cells();
    return out;
  };

  // Score-only runs take run()'s wave. Traced runs take one run_traced()
  // wave, whose shards return their results and traces together.
  ScheduledPhase<align::AlignmentResult> score;
  ScheduledPhase<align::TracedAlignment> traced;
  if (!options_.traceback) {
    score = run_phase<align::AlignmentResult>(batch.size(), phase_shards, [&](std::size_t s) {
      return counted(s, backend_->run(shard_batch(s), phase_shards[s].lane));
    });
  } else {
    std::vector<PhaseOutput<align::AlignmentResult>> scores(phase_shards.size());
    std::vector<PhaseOutput<align::TracedAlignment>> traces(phase_shards.size());
    run_per_lane(backend_->lanes(), phase_shards, [&](std::size_t s) {
      TracedRun shard_run = backend_->run_traced(shard_batch(s), phase_shards[s].lane);
      scores[s] = counted(s, std::move(shard_run.score));
      traces[s] = std::move(shard_run.trace);
    });
    score = merge_phase(batch.size(), phase_shards, std::move(scores));
    traced = merge_phase(batch.size(), phase_shards, std::move(traces));
  }
  AlignOutput out;
  out.results = std::move(score.items);
  out.cells = score.work;
  out.time_ms = score.time_ms;
  out.gcups = gcups_at(out.cells, out.time_ms);
  out.schedule = std::move(score.schedule);
  merge_modeled(out, score);
  if (!options_.traceback) return out;
  out.traced = std::move(traced.items);
  out.traceback_ms = traced.time_ms;
  out.traceback_cells = traced.work;
  merge_modeled(out, traced);
  return out;
}

ChainPhaseOutput BatchScheduler::chain(const seedext::ChainBatch& batch) {
  // One in-place shard (every task, lane 0) unless there are several lanes;
  // then one weighted-LPT task shard per lane, the extension shards'
  // packing discipline.
  std::vector<seedext::ChainShard> shards;
  std::vector<std::size_t> all;
  std::vector<PhaseShard> phase_shards;
  if (backend_->lanes() > 1) {
    shards = seedext::make_chain_shards(batch, lane_weights(*backend_));
    for (const seedext::ChainShard& shard : shards) {
      phase_shards.push_back({shard.lane, shard.tasks});
    }
  } else if (!batch.empty()) {
    all.resize(batch.tasks());
    for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
    phase_shards.emplace_back();
  }
  return run_phase<std::vector<seedext::Chain>>(
      batch.tasks(), phase_shards, [&](std::size_t s) {
        return backend_->run_chaining(batch, shards.empty() ? all : shards[s].tasks,
                                      phase_shards[s].lane);
      });
}

}  // namespace saloba::core
