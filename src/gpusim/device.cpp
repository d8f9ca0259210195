#include "gpusim/device.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace saloba::gpusim {

DeviceOomError::DeviceOomError(std::uint64_t requested_, std::uint64_t in_use_,
                               std::uint64_t capacity_)
    : std::runtime_error([&] {
        std::ostringstream oss;
        oss << "device OOM: requested " << requested_ << " B with " << in_use_
            << " B in use of " << capacity_ << " B";
        return oss.str();
      }()),
      requested(requested_),
      in_use(in_use_),
      capacity(capacity_) {}

BlockContext::BlockContext(std::uint32_t block_id, int warps_per_block, const DeviceSpec& spec)
    : block_id_(block_id) {
  warps_.reserve(static_cast<std::size_t>(warps_per_block));
  for (int w = 0; w < warps_per_block; ++w) {
    warps_.emplace_back(spec.warp_size, spec.mem_access_granularity);
  }
}

WarpContext& BlockContext::warp(int w) {
  SALOBA_CHECK_MSG(w >= 0 && w < warps_per_block(), "warp index " << w << " out of range");
  return warps_[static_cast<std::size_t>(w)];
}

void BlockContext::syncthreads() {
  for (auto& w : warps_) w.sync();
}

BlockCost BlockContext::block_cost(const DeviceSpec& spec, const CostParams& params,
                                   int resident_warps_per_sm) const {
  BlockCost cost;
  for (const auto& w : warps_) {
    double c = warp_cycles(w.counters(), spec, params, resident_warps_per_sm);
    cost.work_cycles += c;
    cost.crit_cycles = std::max(cost.crit_cycles, c);
  }
  return cost;
}

void BlockContext::collect(KernelStats& into) const {
  for (const auto& w : warps_) {
    into.totals.merge(w.counters());
    ++into.warps;
  }
  ++into.blocks;
}

Device::Device(DeviceSpec spec, CostParams params)
    : spec_(std::move(spec)), params_(params) {}

DeviceMem Device::alloc(std::uint64_t bytes, const std::string& label) {
  if (in_use_ + bytes > spec_.dram_bytes) {
    (void)label;
    throw DeviceOomError(bytes, in_use_, spec_.dram_bytes);
  }
  constexpr std::uint64_t kAlign = 256;
  DeviceMem mem;
  mem.base = next_base_;
  mem.size = bytes;
  next_base_ += (bytes + kAlign - 1) / kAlign * kAlign;
  in_use_ += bytes;
  return mem;
}

void Device::free(const DeviceMem& mem) {
  SALOBA_CHECK_MSG(in_use_ >= mem.size, "double free or corrupted DeviceMem");
  in_use_ -= mem.size;
}

LaunchResult Device::launch(const LaunchConfig& config, const BlockFn& body) {
  SALOBA_CHECK_MSG(config.blocks > 0, "launch with zero blocks");
  const int warps_per_block = config.threads_per_block / spec_.warp_size;
  SALOBA_CHECK_MSG(warps_per_block > 0 && config.threads_per_block % spec_.warp_size == 0,
                   "threads_per_block must be a positive multiple of " << spec_.warp_size);

  LaunchResult result;
  result.occupancy = compute_occupancy(spec_, config.threads_per_block,
                                       config.shared_bytes_per_block);
  SALOBA_CHECK_MSG(result.occupancy.blocks_per_sm > 0,
                   "kernel '" << config.label << "' cannot be scheduled: occupancy is zero");

  std::vector<BlockCost> block_costs(config.blocks);
  std::vector<KernelStats> block_stats(config.blocks);

  util::parallel_for_indexed(config.blocks, [&](std::size_t b) {
    BlockContext ctx(static_cast<std::uint32_t>(b), warps_per_block, spec_);
    body(ctx);
    block_costs[b] = ctx.block_cost(spec_, params_, result.occupancy.warps_per_sm);
    ctx.collect(block_stats[b]);
  });

  for (const auto& s : block_stats) result.stats.merge(s);
  result.time = estimate_time(spec_, params_, result.occupancy, block_costs,
                              result.stats.totals, config.init_bytes);
  return result;
}

void RunAccumulator::add(const LaunchResult& r) {
  stats.merge(r.stats);
  time.merge(r.time);
  ++launches;
}

}  // namespace saloba::gpusim
