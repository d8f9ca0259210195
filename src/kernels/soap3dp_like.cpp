// SOAP3-dp-like kernel (paper refs [39],[50]): an early inter-query
// short-read extension kernel. 2-bit packing (N bases substituted — quality
// trade-off noted in Sec. VI-B), a dated per-cell implementation, and
// length-proportional working buffers that exceed small-device memory for
// long inputs (the paper's dataset-A failure on GTX1650 and the long-length
// failures in Fig. 6 (b)).
#include "kernels/block_dp.hpp"
#include "kernels/inter_query_engine.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

KernelPtr make_soap3dp_like(std::size_t nominal_pairs) {
  InterQueryParams p;
  p.info.name = "SOAP3-dp";
  p.info.parallelism = "inter-query";
  p.info.bitwidth = 2;
  p.info.mapping = "one-to-one";
  p.info.exact_with_n = false;  // 2-bit: N bases are substituted
  p.packing = seq::Packing::k2Bit;
  p.instr_per_cell = kInstrPerCellInter + 8;  // pre-GASAL2-era inner loop
  p.interm_cell_bytes = 4;
  p.init_bytes = [nominal_pairs](const seq::PairBatch& batch) {
    // Per-batch staging clears, between NVBIO's negligible setup and
    // GASAL2's heavyweight one.
    std::size_t pairs = std::max(nominal_pairs, batch.size());
    return static_cast<std::uint64_t>(pairs) * (24 << 10);
  };
  p.extra_footprint = [nominal_pairs](const seq::PairBatch& batch) {
    // Working buffers sized by the longest sequence in the batch: 1 KiB per
    // base per pair (DP band states, traceback staging).
    std::size_t pairs = std::max(nominal_pairs, batch.size());
    std::uint64_t max_len = std::max(batch.max_ref_len(), batch.max_query_len());
    return static_cast<std::uint64_t>(pairs) * max_len * 1024;
  };
  return std::make_unique<InterQueryKernel>(std::move(p));
}

const KernelRegistrar reg_soap3dp{"soap3-dp", {"soap3dp"}, 10, &make_soap3dp_like};

}  // namespace
}  // namespace saloba::kernels
