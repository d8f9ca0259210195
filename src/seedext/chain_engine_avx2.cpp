// AVX2 entry point of the chaining push kernel: chain_kernel.hpp
// instantiated with align::simd::OpsI32Avx2 (simd_vec_avx2.hpp). Like
// align/simd_engine_avx2.cpp this is a translation unit compiled with -mavx2
// (CMake per-source flag); callers reach it only after
// align::simd::cpu_supports_avx2 passes at runtime, and nothing defined here
// may be reachable from the generic path.
#if defined(SALOBA_SIMD_AVX2)

#include "align/simd_vec_avx2.hpp"
#include "seedext/chain_engine.hpp"
#include "seedext/chain_kernel.hpp"

namespace saloba::seedext::detail {

void chain_forward_avx2(const ChainTaskView& task, const ChainingParams& params,
                        ChainTaskCounters* counters) {
  chain_task_forward<align::simd::OpsI32Avx2>(task, params, counters);
}

}  // namespace saloba::seedext::detail

#endif  // SALOBA_SIMD_AVX2
