#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "util/check.hpp"

namespace saloba::gpusim {

std::string TimeBreakdown::summary() const {
  std::ostringstream oss;
  oss << "total=" << total_ms << "ms (compute=" << compute_ms << " dram=" << dram_ms
      << " launch=" << launch_ms << " init=" << init_ms;
  for (Phase p : kPhases) {
    if (phase_ms[p] > 0.0) oss << " " << phase_name(p) << "=" << phase_ms[p];
  }
  oss << " imbalance=" << sm_imbalance << ")";
  return oss.str();
}

void TimeBreakdown::merge(const TimeBreakdown& other) {
  compute_ms += other.compute_ms;
  dram_ms += other.dram_ms;
  launch_ms += other.launch_ms;
  init_ms += other.init_ms;
  for (Phase p : kPhases) phase_ms[p] += other.phase_ms[p];
  total_ms += other.total_ms;
  dram_bytes += other.dram_bytes;
  sm_imbalance = std::max(sm_imbalance, other.sm_imbalance);
}

TimeBreakdown TimeBreakdown::scaled(double f) const {
  TimeBreakdown s = *this;
  s.compute_ms *= f;
  s.dram_ms *= f;
  s.launch_ms *= f;
  s.init_ms *= f;
  for (Phase p : kPhases) s.phase_ms[p] *= f;
  s.total_ms *= f;
  s.dram_bytes *= f;
  return s;
}

double warp_cycles(const WarpCounters& w, const DeviceSpec& spec, const CostParams& params,
                   int resident_warps_per_sm) {
  double hide = std::clamp(static_cast<double>(resident_warps_per_sm), 1.0,
                           params.latency_hide_saturation);
  double cycles = params.cpi * static_cast<double>(w.instructions);
  cycles += static_cast<double>(w.shared_conflict_cycles);
  cycles += params.sync_cycles * static_cast<double>(w.syncs);
  cycles += static_cast<double>(w.global_requests) * spec.mem_latency_cycles / hide;
  cycles += static_cast<double>(w.global_transactions) * params.transaction_service_cycles;
  return cycles;
}

double peak_issue_rate(const DeviceSpec& spec) {
  return static_cast<double>(spec.sm_count) * static_cast<double>(spec.schedulers_per_sm) *
         spec.core_clock_ghz * 1e9;
}

TimeBreakdown estimate_time(const DeviceSpec& spec, const CostParams& params,
                            const Occupancy& occ, const std::vector<BlockCost>& block_costs,
                            const WarpCounters& totals, std::uint64_t init_bytes) {
  TimeBreakdown out;
  const double clock_hz = spec.core_clock_ghz * 1e9;
  const double bw_bytes_per_s = spec.mem_bandwidth_gbps * 1e9;

  // --- Compute side: greedy longest-processing-time block → SM assignment.
  // Each SM runs its assigned blocks' work at `schedulers_per_sm` issue
  // slots per cycle, but can never finish faster than its longest critical
  // path (a single monster warp cannot be parallelised away).
  if (!block_costs.empty() && spec.sm_count > 0) {
    std::vector<std::size_t> order(block_costs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return block_costs[a].work_cycles > block_costs[b].work_cycles;
    });

    struct SmState {
      double work = 0.0;
      double crit = 0.0;
    };
    std::vector<SmState> sms(static_cast<std::size_t>(spec.sm_count));
    // Min-heap keyed by accumulated work → earliest-available SM.
    auto cmp = [&sms](std::size_t a, std::size_t b) { return sms[a].work > sms[b].work; };
    std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(cmp)> heap(cmp);
    for (std::size_t s = 0; s < sms.size(); ++s) heap.push(s);

    for (std::size_t idx : order) {
      std::size_t s = heap.top();
      heap.pop();
      sms[s].work += block_costs[idx].work_cycles;
      sms[s].crit = std::max(sms[s].crit, block_costs[idx].crit_cycles);
      heap.push(s);
    }

    double max_sm_cycles = 0.0;
    double sum_sm_cycles = 0.0;
    double total_work = 0.0;
    int busy_sms = 0;
    for (const auto& sm : sms) {
      double t = std::max(sm.work / static_cast<double>(spec.schedulers_per_sm), sm.crit);
      max_sm_cycles = std::max(max_sm_cycles, t);
      total_work += sm.work;
      if (t > 0.0) {
        sum_sm_cycles += t;
        ++busy_sms;
      }
    }
    // Pipelined-throughput estimate: the paper times 200 back-to-back calls
    // (Sec. V-B), so block-granularity lumps and per-call warp tails overlap
    // across calls; sustained time is total issue work over device-wide
    // issue bandwidth. The LPT schedule above still yields the
    // single-call imbalance diagnostic.
    out.compute_ms = total_work /
                     (static_cast<double>(spec.sm_count) *
                      static_cast<double>(spec.schedulers_per_sm)) /
                     clock_hz * 1e3;
    double mean = busy_sms > 0 ? sum_sm_cycles / busy_sms : 0.0;
    out.sm_imbalance = mean > 0.0 ? max_sm_cycles / mean : 0.0;
  }

  // --- DRAM side: granularity waste is partly absorbed by L2 sector reuse,
  // and the remaining stream partially hits in L2 (short-reuse boundary
  // rows), so only (1 - l2_hit_rate) of it reaches DRAM.
  SALOBA_CHECK(totals.global_bytes_moved >= totals.global_bytes_useful);
  double waste =
      static_cast<double>(totals.global_bytes_moved - totals.global_bytes_useful);
  out.dram_bytes = (static_cast<double>(totals.global_bytes_useful) +
                    waste * (1.0 - spec.l2_waste_absorb)) *
                   (1.0 - spec.l2_hit_rate);
  out.dram_ms = out.dram_bytes / bw_bytes_per_s * 1e3;

  out.launch_ms = params.launch_overhead_us / 1e3;
  out.init_ms = static_cast<double>(init_bytes) / bw_bytes_per_s * 1e3;
  out.total_ms = std::max(out.compute_ms, out.dram_ms) + out.launch_ms + out.init_ms;
  (void)occ;  // occupancy enters through warp_cycles' hide factor
  return out;
}

TimeBreakdown estimate_phase_time(Phase phase, const DeviceSpec& spec, const CostParams& params,
                                  const PhaseCost& cost) {
  TimeBreakdown out;
  if (cost.work == 0 && cost.bytes == 0) return out;
  // Every modeled phase is issue-bound like the score kernels: traceback and
  // X-drop cells are independent along a wavefront, and the forward-only
  // chaining recurrence is branch-light and fixed-trip. One work unit per
  // lane per issue slot, device-wide.
  const double instructions =
      static_cast<double>(cost.work) / static_cast<double>(spec.warp_size);
  const double compute_ms = instructions * params.cpi / peak_issue_rate(spec) * 1e3;
  // Checkpoint/block stores, diagonal buffers and SoA anchor columns all
  // stream with short reuse distance, so they hit in L2 like the score
  // pass's boundary rows do.
  const double dram_ms = static_cast<double>(cost.bytes) * (1.0 - spec.l2_hit_rate) /
                         (spec.mem_bandwidth_gbps * 1e9) * 1e3;
  out.phase_ms[phase] = std::max(compute_ms, dram_ms) + params.launch_overhead_us / 1e3;
  out.total_ms = out.phase_ms[phase];
  return out;
}

}  // namespace saloba::gpusim
