#include "gpusim/kernel_stats.hpp"

#include <sstream>

namespace saloba::gpusim {
namespace {

/// Each phase's name and the labels summary() gives its counters, in Phase
/// order.
struct PhaseLabels {
  const char* name;
  const char* work;
  const char* bytes;
};
constexpr std::array<PhaseLabels, kPhases.size()> kPhaseLabels = {{
    {"traceback", "tb_cells", "tb_bytes"},
    {"chaining", "chain_updates", "chain_bytes"},
    {"xdrop", "xdrop_cells", "xdrop_bytes"},
}};

const PhaseLabels& labels_of(Phase phase) {
  return kPhaseLabels[static_cast<std::size_t>(phase)];
}

}  // namespace

const char* phase_name(Phase phase) { return labels_of(phase).name; }

void WarpCounters::merge(const WarpCounters& other) {
  instructions += other.instructions;
  active_lane_ops += other.active_lane_ops;
  global_requests += other.global_requests;
  global_transactions += other.global_transactions;
  global_bytes_moved += other.global_bytes_moved;
  global_bytes_useful += other.global_bytes_useful;
  shared_requests += other.shared_requests;
  shared_conflict_cycles += other.shared_conflict_cycles;
  syncs += other.syncs;
  dp_cells += other.dp_cells;
  dp_cells_skipped += other.dp_cells_skipped;
  for (Phase p : kPhases) phases[p] += other.phases[p];
}

double WarpCounters::lane_utilization(int warp_size) const {
  if (instructions == 0) return 0.0;
  return static_cast<double>(active_lane_ops) /
         (static_cast<double>(instructions) * static_cast<double>(warp_size));
}

void KernelStats::merge(const KernelStats& other) {
  totals.merge(other.totals);
  warps += other.warps;
  blocks += other.blocks;
}

std::string KernelStats::summary(int warp_size) const {
  std::ostringstream oss;
  oss << "warps=" << warps << " instr=" << totals.instructions
      << " lane_util=" << totals.lane_utilization(warp_size)
      << " gld/gst_req=" << totals.global_requests
      << " trans=" << totals.global_transactions
      << " bytes_moved=" << totals.global_bytes_moved
      << " bytes_useful=" << totals.global_bytes_useful
      << " shm_req=" << totals.shared_requests
      << " shm_conflict_cyc=" << totals.shared_conflict_cycles
      << " cells=" << totals.dp_cells;
  if (totals.dp_cells_skipped > 0) oss << " cells_skipped=" << totals.dp_cells_skipped;
  for (Phase p : kPhases) {
    const PhaseCost& cost = totals.phases[p];
    if (cost.work == 0) continue;
    oss << " " << labels_of(p).work << "=" << cost.work << " " << labels_of(p).bytes << "="
        << cost.bytes;
  }
  return oss.str();
}

}  // namespace saloba::gpusim
