// Analytic cost model: converts per-warp event counts into simulated kernel
// time on a device.
//
// Model (documented in DESIGN.md §5):
//   per-warp cycles  c_w = cpi·instructions + shared_conflict_cycles
//                        + sync_cycles·syncs
//                        + requests·(mem_latency / hide(occupancy))
//                        + transactions·transaction_service_cycles
//   per-block        work_b = Σ_w c_w          (issue throughput demand)
//                    crit_b = max_w c_w         (critical path)
//   per-SM (greedy LPT assignment of blocks to SMs):
//                    t_sm = max(Σ work_b / schedulers_per_sm, max crit_b)
//   compute time     = max_sm t_sm / clock
//   DRAM time        = dram_bytes / bandwidth, where dram_bytes counts
//                      useful bytes plus (1 − l2_waste_absorb) of the
//                      granularity waste (Table-I accounting corresponds to
//                      l2_waste_absorb = 0)
//   kernel time      = max(compute, DRAM) + launch overhead + init time
//
// The launch-overhead and buffer-init terms reproduce the small-length
// behaviour in Sec. V-C (GASAL2's memory initialisation cost at 64 bp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "gpusim/occupancy.hpp"

namespace saloba::gpusim {

struct CostParams {
  double cpi = 1.0;
  double sync_cycles = 24.0;
  /// LSU replay cost per extra transaction of an uncoalesced access
  /// (~1 cycle per 32 B sector on Volta-class LSUs).
  double transaction_service_cycles = 0.8;
  /// Latency-hiding saturates once this many warps are resident per SM.
  double latency_hide_saturation = 32.0;
  double launch_overhead_us = 4.0;
};

struct BlockCost {
  double work_cycles = 0.0;  ///< Σ over warps
  double crit_cycles = 0.0;  ///< max over warps
};

struct TimeBreakdown {
  double compute_ms = 0.0;
  double dram_ms = 0.0;
  double launch_ms = 0.0;
  double init_ms = 0.0;
  /// Modeled time of each phase run apart from the score pass
  /// (estimate_phase_time); 0 for phases the run did not have. Included in
  /// total_ms, reported separately so score-pass accounting is undisturbed.
  PerPhase<double> phase_ms;
  double total_ms = 0.0;
  /// Diagnostics.
  double sm_imbalance = 0.0;  ///< max SM time / mean SM time (1.0 = balanced)
  double dram_bytes = 0.0;    ///< bytes charged to DRAM after L2 absorption

  /// Component-wise sum (sm_imbalance keeps the worse of the two): the one
  /// rule for folding shard, chunk and phase breakdowns together.
  void merge(const TimeBreakdown& other);
  /// This breakdown with every time and byte component multiplied by `f`
  /// (a tenant's share of a merged batch). sm_imbalance is a ratio, not a
  /// time, so it is kept as is.
  TimeBreakdown scaled(double f) const;

  std::string summary() const;
};

/// Cycles for one warp under the model (exposed for unit tests).
double warp_cycles(const WarpCounters& w, const DeviceSpec& spec, const CostParams& params,
                   int resident_warps_per_sm);

/// The model's peak sustained issue rate for a device, in warp-instruction
/// issue slots per second — the denominator of the pipelined compute
/// estimate in estimate_time. Absolute units don't matter to callers; the
/// ratio between two devices is the cost model's relative-throughput hint
/// (core::AlignBackend::lane_weight) for heterogeneous-lane scheduling.
double peak_issue_rate(const DeviceSpec& spec);

/// Full kernel-time estimate.
/// `block_costs` must contain one entry per launched block.
/// `init_bytes` models one-time buffer initialisation (memset) overhead.
TimeBreakdown estimate_time(const DeviceSpec& spec, const CostParams& params,
                            const Occupancy& occ, const std::vector<BlockCost>& block_costs,
                            const WarpCounters& totals, std::uint64_t init_bytes = 0);

/// Time estimate for one phase run apart from the score pass: `cost.work`
/// work units (engine cells for kTraceback and kXdrop, push + settlement
/// candidates for kChaining) at one unit per lane per issue slot, so
/// work / warp_size warp instructions through the sustained issue rate;
/// `cost.bytes` of traffic charged to DRAM after L2 hits; one launch. The
/// result lands in phase_ms[phase] and total_ms only (compute/dram/launch
/// stay zero so score-pass accounting is undisturbed when breakdowns are
/// merged).
TimeBreakdown estimate_phase_time(Phase phase, const DeviceSpec& spec, const CostParams& params,
                                  const PhaseCost& cost);

}  // namespace saloba::gpusim
