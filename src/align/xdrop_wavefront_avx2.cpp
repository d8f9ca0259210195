// AVX2 instantiations of the X-drop wavefront's cell body (xdrop_kernel.hpp)
// over align::simd::OpsI16Avx2 and OpsI32Avx2: sixteen or eight
// anti-diagonal cells per instruction. Like simd_engine_avx2.cpp this
// translation unit is compiled with -mavx2 (CMake per-source flag); the
// engine calls it only after align::simd::cpu_supports_avx2 passes at
// runtime, and nothing defined here may be reachable from the generic path.
#if defined(SALOBA_SIMD_AVX2)

#include "align/simd_vec_avx2.hpp"
#include "align/xdrop_kernel.hpp"

namespace saloba::align::detail {

XdropKernels xdrop_kernels_avx2() {
  return {xdrop_kernel<simd::OpsI16Avx2>(), xdrop_kernel<simd::OpsI32Avx2>()};
}

}  // namespace saloba::align::detail

#endif  // SALOBA_SIMD_AVX2
