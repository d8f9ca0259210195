#include "core/backend.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "align/simd_engine.hpp"
#include "align/traceback_engine.hpp"
#include "align/xdrop_wavefront.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_registry.hpp"
#include "seedext/chain_engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::core {
namespace {

/// Indices of the pairs an enabled long-read policy routes to the X-drop
/// wavefront engine, ascending (empty when the policy is disabled).
std::vector<std::size_t> longread_routed(const seq::PairBatch& batch,
                                         const LongReadPolicy& policy) {
  std::vector<std::size_t> routed;
  if (!policy.enabled()) return routed;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (policy.routes(batch.refs[i].size(), batch.queries[i].size())) routed.push_back(i);
  }
  return routed;
}

/// The non-routed remainder of a batch (each pair at its own band) plus the
/// original index of each kept pair, for scattering results back into
/// input order.
struct RestSplit {
  seq::PairBatch batch;
  std::vector<std::size_t> indices;
};

RestSplit split_rest(const seq::PairBatch& batch, std::span<const std::size_t> routed) {
  RestSplit rest;
  std::size_t r = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (r < routed.size() && routed[r] == i) {
      ++r;
      continue;
    }
    rest.indices.push_back(i);
    rest.batch.add(batch.queries[i], batch.refs[i], batch.band_of(i));
  }
  return rest;
}

/// Modeled DRAM traffic of a wavefront run: every cell touches the rolling
/// H/E/F diagonal slots (one write plus prior-diagonal reads, 16 B of int32
/// traffic) and both sequences stream once.
std::uint64_t xdrop_traffic_bytes(std::uint64_t cells, std::size_t bases) {
  return cells * 16 + static_cast<std::uint64_t>(bases);
}

/// The body every backend's run() and HostBackend::run_traced() share: the
/// pairs in `routed` (ascending) go to `run_routed(k)` for routed[k],
/// host-parallel, and the rest to `run_engine` as one batch — the whole
/// batch, uncopied, when nothing is routed; skipped when nothing is left.
/// Returns the engine's output (its time, work and modeled counters as it
/// reported them) with every pair's item in input order.
template <typename Item, typename RunEngine, typename RunRouted>
PhaseOutput<Item> run_split(const seq::PairBatch& batch, std::span<const std::size_t> routed,
                            int threads, RunEngine&& run_engine, RunRouted&& run_routed) {
  if (routed.empty()) return run_engine(batch);
  const RestSplit rest = split_rest(batch, routed);
  PhaseOutput<Item> out;
  if (!rest.indices.empty()) out = run_engine(rest.batch);
  std::vector<Item> items(batch.size());
  for (std::size_t k = 0; k < rest.indices.size(); ++k) {
    items[rest.indices[k]] = std::move(out.items[k]);
  }
  util::parallel_for_indexed(
      routed.size(), [&](std::size_t k) { items[routed[k]] = run_routed(k); }, threads);
  out.items = std::move(items);
  return out;
}

/// The simulated backend's functional trace phase: every pair with a
/// non-zero score-pass result is traced, host-parallel, output order
/// matching input order (a zero result means the empty local alignment,
/// which is the empty trace). Pairs an enabled `longread` policy routes go
/// through the X-drop wavefront's checkpointed traceback (same xdrop as
/// their score pass, so endpoints agree); their cells — the traced forward
/// sweep plus the block replays — and traffic are attributed separately.
/// The rest go through align::banded_traceback at their band, whose
/// endpoints reproduce the banded score pass and whose TracebackStats price
/// the modeled traffic.
struct EnginePhase {
  std::vector<align::TracedAlignment> traced;
  gpusim::PhaseCost traceback;  ///< the banded linear-memory engine's share
  /// Routed long-read pairs' share, attributed apart from the banded
  /// engine so the two phases are modeled separately.
  gpusim::PhaseCost xdrop;

  std::size_t cells() const { return traceback.work + xdrop.work; }
};

EnginePhase trace_phase(const seq::PairBatch& batch,
                        std::span<const align::AlignmentResult> results,
                        const align::ScoringScheme& scoring, const LongReadPolicy& longread) {
  EnginePhase out;
  out.traced.resize(batch.size());
  std::vector<std::size_t> cells(batch.size(), 0);
  std::vector<std::size_t> bytes(batch.size(), 0);
  std::vector<char> is_xdrop(batch.size(), 0);
  util::parallel_for_indexed(batch.size(), [&](std::size_t i) {
    if (results[i].score <= 0) return;
    if (longread.routes(batch.refs[i].size(), batch.queries[i].size())) {
      align::WavefrontStats stats;
      out.traced[i] = align::xdrop_wavefront_align(batch.refs[i], batch.queries[i], scoring,
                                                   align::XDropParams{longread.xdrop}, &stats);
      cells[i] = stats.cells + stats.traceback_cells;
      bytes[i] =
          xdrop_traffic_bytes(cells[i], batch.refs[i].size() + batch.queries[i].size());
      is_xdrop[i] = 1;
      return;
    }
    align::TracebackParams params;
    params.band = batch.band_of(i);
    auto r = align::banded_traceback(batch.refs[i], batch.queries[i], scoring, params);
    out.traced[i] = std::move(r.traced);
    cells[i] = r.stats.cells();
    bytes[i] = r.stats.traffic_bytes;
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (is_xdrop[i] ? out.xdrop : out.traceback) += gpusim::PhaseCost{cells[i], bytes[i]};
  }
  return out;
}

/// Shared chaining-phase body of every backend: the forward-only engine
/// over the shard's tasks (ISA dispatch inside), wall-clock timed. Every
/// backend funnels through seedext::chain_tasks_run, so chains are
/// bit-identical to the sequential oracle wherever the shard lands.
PhaseOutput<std::vector<seedext::Chain>> chain_shard(const seedext::ChainBatch& batch,
                                                     std::span<const std::size_t> tasks,
                                                     int threads) {
  util::Timer timer;
  seedext::ChainEngineStats stats;
  PhaseOutput<std::vector<seedext::Chain>> out;
  out.items = seedext::chain_tasks_run(batch, tasks, &stats, threads);
  out.work = stats.pushes + stats.settled;
  out.time_ms = timer.millis();
  return out;
}

/// The chaining phase's modeled DRAM traffic: each anchor's four SoA columns
/// stream once (16 B) and each evaluated candidate reads and may rewrite a
/// score/parent slot (8 B).
std::uint64_t chaining_traffic_bytes(std::size_t anchors, std::size_t updates) {
  return static_cast<std::uint64_t>(anchors) * 16 +
         static_cast<std::uint64_t>(updates) * 8;
}

/// Charges one phase's modeled cost on `dev` to a simulated backend's
/// output: the counters land in the phase's WarpCounters slot, the estimate
/// in its TimeBreakdown slot and total_ms, and time_ms becomes the updated
/// modeled total.
template <typename Output>
void charge_phase(Output& out, const gpusim::Device& dev, gpusim::Phase phase,
                  const gpusim::PhaseCost& cost) {
  if (!out.kernel_stats) out.kernel_stats.emplace();
  out.kernel_stats->totals.phases[phase] += cost;
  if (!out.time_breakdown) out.time_breakdown.emplace();
  out.time_breakdown->merge(
      gpusim::estimate_phase_time(phase, dev.spec(), dev.cost_params(), cost));
  out.time_ms = out.time_breakdown->total_ms;
}

}  // namespace

std::vector<double> lane_weights(const AlignBackend& backend) {
  std::vector<double> weights(static_cast<std::size_t>(backend.lanes()));
  for (int l = 0; l < backend.lanes(); ++l) {
    weights[static_cast<std::size_t>(l)] = backend.lane_weight(l);
  }
  return weights;
}

HostBackend::HostBackend(align::ScoringScheme scoring, int threads, LongReadPolicy longread)
    : scoring_(scoring), threads_(threads), longread_(longread) {
  align::require_valid(scoring_, "AlignerOptions::scoring");
}

PhaseOutput<align::AlignmentResult> HostBackend::run(const seq::PairBatch& batch, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  util::Timer timer;
  const std::vector<std::size_t> routed = longread_routed(batch, longread_);
  std::vector<align::WavefrontStats> wavefront(routed.size());
  PhaseOutput<align::AlignmentResult> out = run_split<align::AlignmentResult>(
      batch, routed, threads_,
      [&](const seq::PairBatch& b) {
        align::simd::EngineStats stats;
        PhaseOutput<align::AlignmentResult> engine_out;
        engine_out.items = align::simd::align_batch(b, scoring_, &stats, threads_);
        engine_out.work = stats.cells;
        return engine_out;
      },
      [&](std::size_t k) {
        const std::size_t i = routed[k];
        return align::xdrop_wavefront_score(batch.refs[i], batch.queries[i], scoring_,
                                            align::XDropParams{longread_.xdrop}, &wavefront[k]);
      });
  for (const align::WavefrontStats& stats : wavefront) out.work += stats.cells;
  out.time_ms = timer.millis();
  return out;
}

TracedRun HostBackend::run_traced(const seq::PairBatch& batch, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  util::Timer timer;
  const std::vector<std::size_t> routed = longread_routed(batch, longread_);
  std::vector<align::WavefrontStats> wavefront(routed.size());
  align::simd::TraceStats stats;
  TracedRun out;
  out.trace = run_split<align::TracedAlignment>(
      batch, routed, threads_,
      [&](const seq::PairBatch& b) {
        PhaseOutput<align::TracedAlignment> engine_out;
        engine_out.items = align::simd::trace_batch(b, scoring_, &stats, threads_);
        return engine_out;
      },
      [&](std::size_t k) {
        const std::size_t i = routed[k];
        return align::xdrop_wavefront_align(batch.refs[i], batch.queries[i], scoring_,
                                            align::XDropParams{longread_.xdrop}, &wavefront[k]);
      });
  // The forward sweeps are run()'s; only the replays are the trace's own.
  out.score.work = stats.forward_cells;
  out.trace.work = stats.replay_cells;
  for (const align::WavefrontStats& s : wavefront) {
    out.score.work += s.cells;
    out.trace.work += s.traceback_cells;
  }
  out.score.items.reserve(batch.size());
  for (const align::TracedAlignment& t : out.trace.items) out.score.items.push_back(t.end);
  out.score.time_ms = timer.millis();
  return out;
}

PhaseOutput<std::vector<seedext::Chain>> HostBackend::run_chaining(
    const seedext::ChainBatch& batch, std::span<const std::size_t> tasks, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  return chain_shard(batch, tasks, threads_);
}

SimulatedGpuBackend::SimulatedGpuBackend(const AlignerOptions& options)
    : scoring_(options.scoring), longread_(options.longread_policy()) {
  align::require_valid(scoring_, "AlignerOptions::scoring");
  if (options.devices < 1) {
    throw std::invalid_argument("AlignerOptions::devices must be >= 1, got " +
                                std::to_string(options.devices));
  }
  kernel_ = kernels::make_kernel(options.kernel);

  std::vector<gpusim::DeviceSpec> specs;
  for (const std::string& preset : device_preset_list(options.device)) {
    specs.push_back(gpusim::device_by_name(preset));
  }
  const bool mixed = specs.size() > 1;
  if (!mixed) {
    // Homogeneous: `devices` identical replicas of the single preset. Copy
    // out first — assign() from an element of the vector being reassigned
    // is self-aliasing the standard doesn't guarantee to survive.
    const gpusim::DeviceSpec only = specs.front();
    specs.assign(static_cast<std::size_t>(options.devices), only);
  } else if (options.devices != 1 && static_cast<std::size_t>(options.devices) != specs.size()) {
    throw std::invalid_argument("AlignerOptions::devices=" + std::to_string(options.devices) +
                                " conflicts with the " + std::to_string(specs.size()) +
                                "-preset device list \"" + options.device + "\" (use 1 or " +
                                std::to_string(specs.size()) + ")");
  }

  devices_.reserve(specs.size());
  weights_.reserve(specs.size());
  double slowest = gpusim::peak_issue_rate(specs.front());
  for (const gpusim::DeviceSpec& spec : specs) {
    slowest = std::min(slowest, gpusim::peak_issue_rate(spec));
  }
  for (const gpusim::DeviceSpec& spec : specs) {
    devices_.push_back(std::make_unique<gpusim::Device>(spec));
    weights_.push_back(gpusim::peak_issue_rate(spec) / slowest);
  }
  name_ = "sim:" + kernel_->info().name + "@" + specs.front().name;
  if (mixed) {
    for (std::size_t d = 1; d < specs.size(); ++d) name_ += "+" + specs[d].name;
  }
}

double SimulatedGpuBackend::lane_weight(int lane) const {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  return weights_[static_cast<std::size_t>(lane)];
}

PhaseOutput<align::AlignmentResult> SimulatedGpuBackend::run(const seq::PairBatch& batch,
                                                             int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  gpusim::Device& dev = *devices_[static_cast<std::size_t>(lane)];
  // The kernel on this lane's device for the classic pairs; the functional
  // wavefront pass on the host for routed ones (the sweep is
  // backend-independent)...
  const std::vector<std::size_t> routed = longread_routed(batch, longread_);
  std::vector<align::WavefrontStats> wavefront(routed.size());
  PhaseOutput<align::AlignmentResult> out = run_split<align::AlignmentResult>(
      batch, routed, /*threads=*/0,
      [&](const seq::PairBatch& b) {
        kernels::KernelResult kr = kernel_->run(dev, b, scoring_);
        PhaseOutput<align::AlignmentResult> engine_out;
        engine_out.items = std::move(kr.results);
        engine_out.time_ms = kr.time.total_ms;
        engine_out.work = kr.stats.totals.dp_cells;
        engine_out.kernel_stats = kr.stats;
        engine_out.time_breakdown = kr.time;
        return engine_out;
      },
      [&](std::size_t k) {
        const std::size_t i = routed[k];
        return align::xdrop_wavefront_score(batch.refs[i], batch.queries[i], scoring_,
                                            align::XDropParams{longread_.xdrop}, &wavefront[k]);
      });
  // ...then the routed pairs' modeled cost on this lane's device (a no-op
  // when nothing was routed).
  gpusim::PhaseCost xdrop;
  for (std::size_t k = 0; k < routed.size(); ++k) {
    const std::size_t i = routed[k];
    xdrop += gpusim::PhaseCost{
        wavefront[k].cells,
        xdrop_traffic_bytes(wavefront[k].cells, batch.refs[i].size() + batch.queries[i].size())};
  }
  out.work += xdrop.work;
  charge_phase(out, dev, gpusim::Phase::kXdrop, xdrop);
  return out;
}

TracedRun SimulatedGpuBackend::run_traced(const seq::PairBatch& batch, int lane) {
  TracedRun out;
  out.score = run(batch, lane);
  // The functional trace phase on the host (traced endpoints match the
  // kernels bit-for-bit; routed long-read pairs mirror their wavefront
  // score pass instead)...
  EnginePhase phase = trace_phase(batch, out.score.items, scoring_, longread_);
  out.trace.items = std::move(phase.traced);
  out.trace.work = phase.cells();
  // ...then each engine's modeled cost on this lane's device, attributed
  // apart (Phase::kTraceback vs Phase::kXdrop).
  const gpusim::Device& dev = *devices_[static_cast<std::size_t>(lane)];
  charge_phase(out.trace, dev, gpusim::Phase::kTraceback, phase.traceback);
  charge_phase(out.trace, dev, gpusim::Phase::kXdrop, phase.xdrop);
  return out;
}

PhaseOutput<std::vector<seedext::Chain>> SimulatedGpuBackend::run_chaining(
    const seedext::ChainBatch& batch, std::span<const std::size_t> tasks, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  // Functional pass on the host — the engine's output is ISA- and
  // backend-independent, so the simulated lane returns the same chains...
  PhaseOutput<std::vector<seedext::Chain>> out = chain_shard(batch, tasks, /*threads=*/0);
  // ...with the phase's modeled cost on this lane's device replacing the
  // host wall-clock.
  std::size_t anchors = 0;
  for (std::size_t t : tasks) anchors += batch.task_size(t);
  const gpusim::Device& dev = *devices_[static_cast<std::size_t>(lane)];
  charge_phase(out, dev, gpusim::Phase::kChaining,
               {out.work, chaining_traffic_bytes(anchors, out.work)});
  return out;
}

std::unique_ptr<AlignBackend> make_backend(const AlignerOptions& options) {
  if (options.backend != Backend::kCpu) return std::make_unique<SimulatedGpuBackend>(options);
  return std::make_unique<HostBackend>(options.scoring, /*threads=*/0, options.longread_policy());
}

std::vector<std::unique_ptr<AlignBackend>> make_worker_replicas(const AlignerOptions& options,
                                                                std::size_t workers) {
  std::vector<std::unique_ptr<AlignBackend>> replicas;
  if (workers <= 1) return replicas;
  const int threads = std::max(1, util::max_parallel_threads() / static_cast<int>(workers));
  for (std::size_t w = 0; w < workers; ++w) {
    if (options.backend == Backend::kCpu) {
      replicas.push_back(
          std::make_unique<HostBackend>(options.scoring, threads, options.longread_policy()));
    } else {
      replicas.push_back(make_backend(options));
    }
  }
  return replicas;
}

}  // namespace saloba::core
