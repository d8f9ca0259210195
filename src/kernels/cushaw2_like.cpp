// CUSHAW2-GPU-like kernel (paper ref [45]): inter-query with two
// refinements the paper credits for its competitiveness (Sec. V-B): a
// compacted global-memory storage format for intermediate rows (2 B per
// boundary cell — two cells share each 4-byte store) and input fetches
// through the texture cache. Combined with GASAL2's on-GPU packing (the
// paper applies it to all baselines), it edges out GASAL2 on RTX3090 at
// long lengths, where DRAM traffic dominates.
#include "kernels/block_dp.hpp"
#include "kernels/inter_query_engine.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

KernelPtr make_cushaw2_like(std::size_t nominal_pairs) {
  InterQueryParams p;
  p.info.name = "CUSHAW2-GPU";
  p.info.parallelism = "inter-query";
  p.info.bitwidth = 2;
  p.info.mapping = "one-to-many";
  p.info.exact_with_n = false;  // converts N to a substitute base (Sec. VI-B)
  p.packing = seq::Packing::k2Bit;
  // 2-bit unpacking arithmetic plus the one-to-one adaptation layer cost
  // extra instructions per cell; the compact format pays off only where
  // DRAM is the bottleneck (RTX3090 at long lengths, Sec. V-B).
  p.instr_per_cell = kInstrPerCellInter + 6;
  p.interm_cell_bytes = 2;
  p.texture_inputs = true;
  p.init_bytes = [nominal_pairs](const seq::PairBatch& batch) {
    // Staging borrowed from GASAL2's packing path, somewhat leaner.
    std::size_t pairs = std::max(nominal_pairs, batch.size());
    return static_cast<std::uint64_t>(pairs) * (24 << 10);
  };
  return std::make_unique<InterQueryKernel>(std::move(p));
}

const KernelRegistrar reg_cushaw2{"cushaw2-gpu", {"cushaw2"}, 20, &make_cushaw2_like};

}  // namespace
}  // namespace saloba::kernels
