// Configuration autotuning: codifies the paper's Fig. 8(c) finding that the
// best subwarp size depends on the workload's length regime and imbalance.
#pragma once

#include <vector>

#include "core/scheduler.hpp"
#include "core/workload.hpp"
#include "kernels/saloba_kernel.hpp"

namespace saloba::core {

/// Picks a subwarp size for a workload with the given statistics.
///
/// Rationale (paper Sec. IV-C / V-D): small subwarps minimise the
/// prologue/epilogue waste, which dominates for short queries; large
/// subwarps minimise intra-warp imbalance, which dominates when lengths
/// vary wildly (dataset B'). The thresholds are fitted to the Fig. 8(c)
/// sweeps regenerated by bench/fig8_realworld.
int recommend_subwarp_size(const DatasetStats& stats);

/// Full config for a workload: subwarp size from the stats; lazy spilling
/// always on (it never loses).
kernels::SalobaConfig recommend_config(const DatasetStats& stats);

/// Host-side scheduling for a workload, given the lane count of the backend
/// that will run it. Balanced workloads keep one shard per lane (on a
/// single lane that degenerates to the bit-identical single-launch fast
/// path); skewed workloads get sorted packing with ~4 shards per lane so
/// the longest pairs cannot strand a lane at the end of the batch.
/// Banded workloads (DatasetStats::banded) are judged by the CV of their
/// in-band cell counts — a banded shard costs O(n·band) cells, not O(n·m),
/// so length skew alone no longer forces extra shards.
/// core::AlignService applies this to every merged batch (and so
/// StreamAligner to every chunk).
SchedulerOptions recommend_scheduler(const DatasetStats& stats, int lanes = 1);

/// Cost-aware overload for heterogeneous backends: `lane_weights` are the
/// backend's relative lane throughputs (AlignBackend::lane_weight). Uniform
/// weights defer to the lane-count overload. Skewed weights (max/min above
/// 1.25) force sorted packing with ~8 shards per lane — even when lengths
/// are uniform — so the weighted LPT has enough shards for fast lanes to
/// take proportionally more and to steal tail work, instead of freezing a
/// one-shard-per-lane partition at dispatch time.
SchedulerOptions recommend_scheduler(const DatasetStats& stats,
                                     const std::vector<double>& lane_weights);

}  // namespace saloba::core
