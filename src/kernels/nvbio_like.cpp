// NVBIO-like kernel (paper refs [3]): NVIDIA's bioinformatics component
// library. Inter-query, flexible packing (we model its 4-bit path), very low
// startup cost — which is why it is the only baseline faster than SALoBa at
// 64 bp (Sec. V-B) — but a heavier intermediate format (8 B per boundary
// cell: H and E stored as separate int words) and a large per-batch staging
// matrix that exhausts device memory at long lengths (Fig. 6 (b)/(d):
// "bounded device memory").
#include "kernels/block_dp.hpp"
#include "kernels/inter_query_engine.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

KernelPtr make_nvbio_like(std::size_t nominal_pairs) {
  InterQueryParams p;
  p.info.name = "NVBIO";
  p.info.parallelism = "inter-query";
  p.info.bitwidth = 4;  // library supports 2/4/8; the DNA path uses 4
  p.info.mapping = "one-to-many";
  p.info.exact_with_n = true;
  p.packing = seq::Packing::k4Bit;
  p.instr_per_cell = kInstrPerCellInter;  // well-tuned inner loop, like GASAL2
  p.interm_cell_bytes = 8;                // but a fatter intermediate format
  p.init_bytes = [](const seq::PairBatch& batch) {
    return static_cast<std::uint64_t>(batch.size()) * 256;  // negligible setup
  };
  p.extra_footprint = [nominal_pairs](const seq::PairBatch& batch) {
    // Checkpoint matrix staging: 2 B per DP cell at maximum dimensions.
    std::size_t pairs = std::max(nominal_pairs, batch.size());
    std::uint64_t n = batch.max_ref_len();
    std::uint64_t m = batch.max_query_len();
    return static_cast<std::uint64_t>(pairs) * n * m * 2;
  };
  return std::make_unique<InterQueryKernel>(std::move(p));
}

const KernelRegistrar reg_nvbio{"nvbio", {}, 30, &make_nvbio_like};

}  // namespace
}  // namespace saloba::kernels
