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

/// X-drop wavefront score pass over the routed pairs, host-parallel.
/// `results[k]` belongs to batch pair `routed[k]`.
struct LongReadPhase {
  std::vector<align::AlignmentResult> results;
  gpusim::PhaseCost cost;  ///< wavefront cells and modeled traffic
  double wall_ms = 0.0;
};

LongReadPhase score_longread(const seq::PairBatch& batch,
                             std::span<const std::size_t> routed,
                             const align::ScoringScheme& scoring, align::Score xdrop,
                             int threads) {
  util::Timer timer;
  LongReadPhase out;
  out.results.resize(routed.size());
  std::vector<align::WavefrontStats> stats(routed.size());
  util::parallel_for_indexed(
      routed.size(),
      [&](std::size_t k) {
        const std::size_t i = routed[k];
        out.results[k] = align::xdrop_wavefront_score(
            batch.refs[i], batch.queries[i], scoring, align::XDropParams{xdrop}, &stats[k]);
      },
      threads);
  for (std::size_t k = 0; k < routed.size(); ++k) {
    const std::size_t i = routed[k];
    out.cost.work += stats[k].cells;
    out.cost.bytes += xdrop_traffic_bytes(stats[k].cells,
                                          batch.refs[i].size() + batch.queries[i].size());
  }
  out.wall_ms = timer.millis();
  return out;
}

/// run() body shared by all backends: pairs an enabled `policy` routes go
/// through the wavefront phase, the rest through `run_engine` (skipped when
/// empty; its kernel stats and breakdown carried through), merged back into
/// input order. With nothing routed the whole batch goes to `run_engine`
/// uncopied and the phase is empty. The caller owns how the long-read phase
/// is *costed* — hosts add its wall-clock, the simulated backend charges a
/// modeled estimate — so only results and cells are merged here.
template <typename RunEngine>
std::pair<PhaseOutput<align::AlignmentResult>, LongReadPhase> run_with_longread(
    const seq::PairBatch& batch, const LongReadPolicy& policy,
    const align::ScoringScheme& scoring, int threads, RunEngine&& run_engine) {
  const std::vector<std::size_t> routed = longread_routed(batch, policy);
  if (routed.empty()) return {run_engine(batch), LongReadPhase{}};
  const RestSplit rest = split_rest(batch, routed);
  PhaseOutput<align::AlignmentResult> out;
  out.items.resize(batch.size());
  if (!rest.indices.empty()) {
    PhaseOutput<align::AlignmentResult> rest_out = run_engine(rest.batch);
    for (std::size_t k = 0; k < rest.indices.size(); ++k) {
      out.items[rest.indices[k]] = rest_out.items[k];
    }
    out.time_ms = rest_out.time_ms;
    out.work = rest_out.work;
    out.kernel_stats = std::move(rest_out.kernel_stats);
    out.time_breakdown = rest_out.time_breakdown;
  }
  LongReadPhase lr = score_longread(batch, routed, scoring, policy.xdrop, threads);
  for (std::size_t k = 0; k < routed.size(); ++k) {
    out.items[routed[k]] = lr.results[k];
  }
  out.work += lr.cost.work;
  return {std::move(out), std::move(lr)};
}

/// Shared traceback-phase body of every backend: every pair with a non-zero
/// score-pass result is traced, host-parallel, output order matching input
/// order. Pairs an enabled `longread` policy routes go through the X-drop
/// wavefront's checkpointed traceback (same xdrop as their score pass, so
/// endpoints agree); their cells — the traced forward sweep plus the block
/// replays — and traffic are attributed separately. The rest go through the
/// banded linear-memory engine, whose endpoints reproduce the banded score
/// pass: align::banded_traceback per pair, whose TracebackStats price the
/// simulated backend's modeled traffic, or with `cohorts` the checkpointed
/// SIMD cohort pass (align::simd::trace_batch), which traces identically but
/// prices no modeled traffic.
struct EnginePhase {
  std::vector<align::TracedAlignment> traced;
  gpusim::PhaseCost traceback;  ///< the banded linear-memory engine's share
  /// Routed long-read pairs' share, attributed apart from the banded
  /// engine so the simulated backend can model the two phases separately.
  gpusim::PhaseCost xdrop;

  std::size_t cells() const { return traceback.work + xdrop.work; }
};

EnginePhase trace_phase(const seq::PairBatch& batch,
                        std::span<const align::AlignmentResult> results,
                        const align::ScoringScheme& scoring, int threads,
                        const LongReadPolicy& longread, bool cohorts) {
  SALOBA_CHECK_MSG(results.size() == batch.size(),
                   "traceback got " << results.size() << " score results for a "
                                    << batch.size() << "-pair batch");
  EnginePhase out;
  out.traced.resize(batch.size());
  std::vector<std::size_t> cells(batch.size(), 0);
  std::vector<std::size_t> bytes(batch.size(), 0);
  std::vector<char> is_xdrop(batch.size(), 0);
  // The ends the SIMD cohort pass traces: the score pass's, minus routed pairs.
  std::vector<align::AlignmentResult> simd_ends;
  if (cohorts) simd_ends.assign(results.begin(), results.end());
  util::parallel_for_indexed(
      batch.size(),
      [&](std::size_t i) {
        // A zero score pass means the empty local alignment — the engine
        // would re-derive exactly that, so skip the sweep.
        if (results[i].score <= 0) return;
        if (longread.routes(batch.refs[i].size(), batch.queries[i].size())) {
          align::WavefrontStats stats;
          out.traced[i] = align::xdrop_wavefront_align(
              batch.refs[i], batch.queries[i], scoring,
              align::XDropParams{longread.xdrop}, &stats);
          cells[i] = stats.cells + stats.traceback_cells;
          bytes[i] = xdrop_traffic_bytes(cells[i],
                                         batch.refs[i].size() + batch.queries[i].size());
          is_xdrop[i] = 1;
          if (cohorts) simd_ends[i] = align::AlignmentResult{};
          return;
        }
        if (cohorts) return;
        align::TracebackParams params;
        params.band = batch.band_of(i);
        auto r = align::banded_traceback(batch.refs[i], batch.queries[i], scoring, params);
        out.traced[i] = std::move(r.traced);
        cells[i] = r.stats.cells();
        bytes[i] = r.stats.traffic_bytes;
      },
      threads);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (is_xdrop[i] ? out.xdrop : out.traceback) += gpusim::PhaseCost{cells[i], bytes[i]};
  }
  if (cohorts) {
    align::simd::TraceStats stats;
    std::vector<align::TracedAlignment> traced =
        align::simd::trace_batch(batch, simd_ends, scoring, &stats, threads);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (simd_ends[i].score > 0) out.traced[i] = std::move(traced[i]);
    }
    out.traceback.work += stats.cells();
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
  auto [out, lr] = run_with_longread(
      batch, longread_, scoring_, threads_, [&](const seq::PairBatch& b) {
        align::simd::EngineStats stats;
        PhaseOutput<align::AlignmentResult> engine_out;
        engine_out.items = align::simd::align_batch(b, scoring_, &stats, threads_);
        engine_out.time_ms = stats.wall_ms;
        engine_out.work = stats.cells;
        return engine_out;
      });
  out.time_ms += lr.wall_ms;
  return std::move(out);
}

PhaseOutput<align::TracedAlignment> HostBackend::run_traceback(
    const seq::PairBatch& batch, std::span<const align::AlignmentResult> results, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  util::Timer timer;
  EnginePhase phase =
      trace_phase(batch, results, scoring_, threads_, longread_, /*cohorts=*/true);
  PhaseOutput<align::TracedAlignment> out;
  out.items = std::move(phase.traced);
  out.work = phase.cells();
  out.time_ms = timer.millis();
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
  auto [out, lr] = run_with_longread(
      batch, longread_, scoring_, /*threads=*/0, [&](const seq::PairBatch& b) {
        kernels::KernelResult kr = kernel_->run(dev, b, scoring_);
        PhaseOutput<align::AlignmentResult> engine_out;
        engine_out.items = std::move(kr.results);
        engine_out.time_ms = kr.time.total_ms;
        engine_out.work = kr.stats.totals.dp_cells;
        engine_out.kernel_stats = kr.stats;
        engine_out.time_breakdown = kr.time;
        return engine_out;
      });
  // ...then the routed phase's modeled cost on this lane's device replaces
  // its host wall-clock (a no-op when nothing was routed).
  charge_phase(out, dev, gpusim::Phase::kXdrop, lr.cost);
  return std::move(out);
}

PhaseOutput<align::TracedAlignment> SimulatedGpuBackend::run_traceback(
    const seq::PairBatch& batch, std::span<const align::AlignmentResult> results, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  // Functional pass on the host (traced endpoints match the kernels
  // bit-for-bit; routed long-read pairs mirror their wavefront score pass
  // instead)...
  EnginePhase phase =
      trace_phase(batch, results, scoring_, /*threads=*/0, longread_, /*cohorts=*/false);
  PhaseOutput<align::TracedAlignment> out;
  out.items = std::move(phase.traced);
  out.work = phase.cells();
  // ...then each engine's modeled cost on this lane's device, attributed
  // apart (Phase::kTraceback vs Phase::kXdrop).
  const gpusim::Device& dev = *devices_[static_cast<std::size_t>(lane)];
  charge_phase(out, dev, gpusim::Phase::kTraceback, phase.traceback);
  charge_phase(out, dev, gpusim::Phase::kXdrop, phase.xdrop);
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
