// Internal header of the X-drop wavefront engine (xdrop_wavefront.hpp): the
// one cell body of its forward sweep and of its block replay, written once
// against the signed lane vocabularies of simd_vec.hpp and instantiated per
// lane type and ISA (xdrop_wavefront.cpp: OpsI16Generic, OpsI32Generic;
// xdrop_wavefront_avx2.cpp: OpsI16Avx2, OpsI32Avx2). One call sweeps one
// anti-diagonal d, Ops::kLanes cells (i, d - i) per vector in increasing i —
// every cell of d reads only diagonals d-1 and d-2, so the lanes are
// independent. The engine picks the lane type per pair: 16 int16 lanes when
// the pair's score bound fits int16 (add/sub saturate), else 8 int32 lanes
// (add/sub wrap).
//
// The body tests no window. The engine keeps the arrays it reads padded and
// neutral instead:
//
//   * diagonal buffers hold cell i at slot i + 1, so slot 0 sits before
//     i = 0, and kXdropLanes slots follow i = n - 1;
//   * after a diagonal [lo, hi] is swept (and after a checkpoint restore)
//     slots lo - 1 and hi + 1 hold H = 0, E = F = -inf, the never-computed
//     values. The windows obey lo(d) >= lo(d-1) and hi(d) <= hi(d-1) + 1,
//     so the cells of [lo, hi] read d-1 only in [lo(d-1) - 1, hi(d-1) + 1]
//     and d-2 only in [lo(d-2) - 1, hi(d-2) + 1]; the i = 0 and j = 0
//     borders land on those same sentinel slots;
//   * both sequences are read forward: `ref` is a padded copy of the
//     reference and `query_rev` a padded reversed copy of the query, so
//     cell (i, d - i) reads query_rev[m - 1 - d + i].
//
// Lanes past hi compute garbage (wrapping at int32, saturating at int16).
// Their H/E/F land in padding or past hi + 1 (which the engine then seals),
// their flag bytes in the next diagonal's slots or the block's tail slack,
// and they are masked out of the diagonal's max.
#pragma once

#include <cstdint>

#include "align/traceback_engine.hpp"
#include "seq/alphabet.hpp"

namespace saloba::align::detail {

/// Lanes per vector of the widest vocabulary (16 int16 lanes): the slack
/// every padded array carries past its last real entry, at either width.
inline constexpr std::int64_t kXdropLanes = 16;

/// Lane k holds k: turns "lanes past hi" into a compare.
template <typename T>
inline constexpr T kXdropLaneIndex[kXdropLanes] = {0, 1, 2,  3,  4,  5,  6,  7,
                                                   8, 9, 10, 11, 12, 13, 14, 15};

/// One diagonal's sweep over the engine's padded arrays (see the file
/// comment for their layout): cells (i, d - i) for lo <= i <= hi, in lanes
/// of type T.
template <typename T>
struct XdropSweep {
  const T* h_d2 = nullptr;  ///< H of diagonal d-2
  const T* h_d1 = nullptr;  ///< H, E, F of diagonal d-1
  const T* e_d1 = nullptr;
  const T* f_d1 = nullptr;
  T* h = nullptr;  ///< H, E, F of diagonal d (written)
  T* e = nullptr;
  T* f = nullptr;
  const std::uint8_t* ref = nullptr;        ///< reference, padded with N
  const std::uint8_t* query_rev = nullptr;  ///< query reversed, padded with N
  std::int64_t m = 0;                       ///< query length
  std::int32_t match = 0, mismatch = 0, alpha = 0, beta = 0;
  std::int64_t d = 0, lo = 0, hi = -1;
};

/// A swept diagonal's largest H, and the smallest i holding it when that
/// score is positive and reaches the best so far (else -1): the only cell of
/// the diagonal that can pass align::take_better.
struct XdropTop {
  std::int32_t score = 0;
  std::int64_t i = -1;
};

/// One instantiation of the kernel, over lanes of type T.
template <typename T>
struct XdropKernel {
  /// Sweeps the diagonal; `best` is the best score so far.
  XdropTop (*scores)(const XdropSweep<T>& s, std::int32_t best);
  /// Sweeps the diagonal, writing cell i's align::TraceFlag byte to
  /// flags[i - lo] (and up to kXdropLanes - 1 bytes of slack past hi).
  void (*flags)(const XdropSweep<T>& s, std::uint8_t* flags);
};

/// One ISA's instantiations, one per lane type.
struct XdropKernels {
  XdropKernel<std::int16_t> i16;
  XdropKernel<std::int32_t> i32;
};

XdropKernels xdrop_kernels_generic();
#if defined(SALOBA_SIMD_AVX2)
/// xdrop_wavefront_avx2.cpp; call only after a runtime CPUID check.
XdropKernels xdrop_kernels_avx2();
#endif

/// The cell body over one diagonal. Score mode returns the largest H of
/// [lo, hi]; flag mode stores the flag bytes and returns 0.
template <typename Ops, bool kFlags>
std::int32_t xdrop_sweep(const XdropSweep<typename Ops::Elem>& sweep, std::uint8_t* flags) {
  using Vec = typename Ops::Vec;
  using Elem = typename Ops::Elem;
  constexpr std::int64_t kLanes = Ops::kLanes;
  static_assert(kLanes <= kXdropLanes);
  const auto splat = [](std::int64_t v) { return Ops::splat(static_cast<Elem>(v)); };
  // A local copy: vector stores may alias anything, so through the
  // reference every store would force the pointers to be reloaded.
  const XdropSweep<Elem> s = sweep;
  const Vec v_zero = splat(0);
  const Vec v_alpha = splat(s.alpha);
  const Vec v_beta = splat(s.beta);
  const Vec v_match = splat(s.match);
  const Vec v_mismatch = splat(-s.mismatch);
  const Vec v_n = splat(seq::kBaseN);
  Vec v_max = v_zero;
  const std::int64_t q0 = s.m - 1 - s.d;  // query_rev[q0 + i] = query[d - i]
  for (std::int64_t i = s.lo; i <= s.hi; i += kLanes) {
    const std::int64_t slot = i + 1;
    const Vec h_left = Ops::load(s.h_d1 + slot);  // (i, j-1)
    const Vec e_left = Ops::load(s.e_d1 + slot);
    const Vec h_up = Ops::load(s.h_d1 + slot - 1);  // (i-1, j)
    const Vec f_up = Ops::load(s.f_d1 + slot - 1);
    const Vec h_diag = Ops::load(s.h_d2 + slot - 1);  // (i-1, j-1)
    const Vec r = Ops::load_bases(s.ref + i);
    const Vec q = Ops::load_bases(s.query_rev + (q0 + i));
    // N never matches anything, N included (ScoringScheme::substitution).
    const Vec same = Ops::andnot(Ops::cmpeq(r, v_n), Ops::cmpeq(r, q));

    const Vec e_open = Ops::sub(h_left, v_alpha);
    const Vec f_open = Ops::sub(h_up, v_alpha);
    const Vec e = Ops::smax(e_open, Ops::sub(e_left, v_beta));
    const Vec f = Ops::smax(f_open, Ops::sub(f_up, v_beta));
    const Vec diag = Ops::add(h_diag, Ops::blend(same, v_match, v_mismatch));
    const Vec h = Ops::smax(Ops::smax(v_zero, diag), Ops::smax(e, f));
    Ops::store(s.h + slot, h);
    Ops::store(s.e + slot, e);
    Ops::store(s.f + slot, f);

    if constexpr (kFlags) {
      // trace_flags' six comparisons, one bit each.
      Vec bits = Ops::vand(Ops::cmpeq(h, diag), splat(kTraceDiag));
      bits = Ops::vor(bits, Ops::vand(Ops::cmpeq(h, e), splat(kTraceFromE)));
      bits = Ops::vor(bits, Ops::vand(Ops::cmpeq(h, f), splat(kTraceFromF)));
      bits = Ops::vor(bits, Ops::vand(Ops::cmpeq(e, e_open), splat(kTraceEOpen)));
      bits = Ops::vor(bits, Ops::vand(Ops::cmpeq(f, f_open), splat(kTraceFOpen)));
      bits = Ops::vor(bits, Ops::vand(Ops::cmpeq(h, v_zero), splat(kTraceZero)));
      Ops::store_low_bytes(flags + (i - s.lo), bits);
    } else if (s.hi - i >= kLanes - 1) {
      v_max = Ops::smax(v_max, h);
    } else {
      // The last vector: lanes past hi hold garbage. H >= 0, so a lane
      // zeroed out cannot raise the max.
      const Vec live = Ops::cmpgt(splat(s.hi - i + 1), Ops::load(kXdropLaneIndex<Elem>));
      v_max = Ops::smax(v_max, Ops::vand(live, h));
    }
  }
  return Ops::hmax(v_max);
}

/// Score mode: the diagonal's top score and, when it can pass take_better,
/// the smallest i holding it. Lanes past hi cannot hold it before a live
/// lane does: the max excluded them and they follow every live lane.
template <typename Ops>
XdropTop xdrop_scores(const XdropSweep<typename Ops::Elem>& s, std::int32_t best) {
  XdropTop top;
  top.score = xdrop_sweep<Ops, false>(s, nullptr);
  if (top.score == 0 || top.score < best) return top;
  const typename Ops::Vec v_top = Ops::splat(static_cast<typename Ops::Elem>(top.score));
  std::int64_t i = s.lo;
  while (!Ops::any(Ops::cmpeq(Ops::load(s.h + i + 1), v_top))) i += Ops::kLanes;
  while (s.h[i + 1] != top.score) ++i;
  top.i = i;
  return top;
}

template <typename Ops>
void xdrop_flags(const XdropSweep<typename Ops::Elem>& s, std::uint8_t* flags) {
  xdrop_sweep<Ops, true>(s, flags);
}

/// The kernel over the vocabulary `Ops`.
template <typename Ops>
XdropKernel<typename Ops::Elem> xdrop_kernel() {
  return {&xdrop_scores<Ops>, &xdrop_flags<Ops>};
}

}  // namespace saloba::align::detail
