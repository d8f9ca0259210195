// GASAL2-like kernel (paper Sec. II-B / III): the state-of-the-art
// inter-query baseline. One thread per pair, 4-bit packing, 8×8 blocks,
// strip boundary rows stored as 4-byte (H,F) cells in global memory.
//
// The distinguishing cost is its staging-buffer initialisation: GASAL2
// allocates and clears large per-batch buffers sized for the maximum
// lengths, which dominates at 64 bp (Sec. V-C, "relatively large memory
// initialization cost").
#include "kernels/block_dp.hpp"
#include "kernels/inter_query_engine.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

// Staging bytes memset per pair at batch setup (packed sequence staging,
// per-pair metadata and result slots, sized at GASAL2's defaults).
constexpr std::uint64_t kInitBytesPerPair = 40 << 10;

KernelPtr make_gasal2_like(std::size_t nominal_pairs) {
  InterQueryParams p;
  p.info.name = "GASAL2";
  p.info.parallelism = "inter-query";
  p.info.bitwidth = 4;
  p.info.mapping = "one-to-one";
  p.info.exact_with_n = true;
  p.packing = seq::Packing::k4Bit;
  p.instr_per_cell = kInstrPerCellInter;
  p.interm_cell_bytes = 4;
  p.init_bytes = [nominal_pairs](const seq::PairBatch& batch) {
    std::size_t pairs = std::max(nominal_pairs, batch.size());
    return static_cast<std::uint64_t>(pairs) * kInitBytesPerPair;
  };
  return std::make_unique<InterQueryKernel>(std::move(p));
}

const KernelRegistrar reg_gasal2{"gasal2", {}, 40, &make_gasal2_like};

}  // namespace
}  // namespace saloba::kernels
